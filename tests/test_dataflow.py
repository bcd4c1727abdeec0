"""The event-driven dataflow scheduler (repro.runtime.dataflow).

Three layers of guarantees:

* **unit** — the DataflowClock mirrors the lockstep placement while a
  window is open (provisional times, ``now()``, ``free_at``) and
  commits a valid schedule at finalize;
* **property (hypothesis)** — for arbitrary task DAGs the finalized
  schedule respects every dependency and resource serialisation, never
  worsens the lockstep makespan, and is monotone non-increasing vs the
  no-overlap (fully chained) ablation;
* **integration** — a dataflow-mode context trains to bit-identical
  predictions with a no-worse makespan (the conformance sweep covers
  all six models; see also benchmarks/test_runtime_regression.py).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.dataflow import DataflowClock, PendingTask
from repro.simgpu.clock import SimClock, Task
from repro.util.errors import ConfigError

RESOURCES = ("cpu", "gpu", "net")


def _twin_clocks():
    lock, flow = SimClock(), DataflowClock()
    for clock in (lock, flow):
        for r in RESOURCES:
            clock.add_resource(r)
    return lock, flow


def _replay(clock, plan):
    """Submit ``plan`` = [(resource, duration, dep_indices)] onto a clock."""
    tasks = []
    for resource, duration, dep_idx in plan:
        deps = tuple(tasks[i] for i in dep_idx)
        tasks.append(clock.run(resource, duration, deps=deps, label=f"t{len(tasks)}"))
    return tasks


def _plan_edges(plan):
    """The (task, dep) index pairs of a ``_replay`` plan."""
    return [(i, j) for i, (_, _, dep_idx) in enumerate(plan) for j in dep_idx]


def _assert_valid_schedule(tasks, edges):
    """Every dep edge ``(i, j)`` honoured; every resource strictly serial.

    The edges come from the plan, not from the tasks: a placed
    ``PendingTask`` drops its ``deps``, so they cannot be read back.
    """
    real = [t.real if isinstance(t, PendingTask) else t for t in tasks]
    per_resource = {}
    for t in real:
        per_resource.setdefault(t.resource, []).append(t)
    for i, j in edges:
        assert real[i].start >= real[j].finish - 1e-12, (
            f"{real[i].label} starts at {real[i].start} before dep "
            f"{real[j].label} finishes at {real[j].finish}"
        )
    for resource, scheduled in per_resource.items():
        scheduled = sorted(scheduled, key=lambda t: (t.start, t.finish))
        for a, b in zip(scheduled, scheduled[1:]):
            assert b.start >= a.finish - 1e-12, (
                f"overlap on {resource}: {a} then {b}"
            )


class TestProvisionalMirrorsLockstep:
    def test_pending_times_equal_lockstep(self):
        plan = [
            ("cpu", 2.0, ()),
            ("net", 1.0, (0,)),
            ("gpu", 3.0, (1,)),
            ("cpu", 0.5, ()),
            ("gpu", 1.0, (0, 3)),
        ]
        lock, flow = _twin_clocks()
        ref = _replay(lock, plan)
        pend = _replay(flow, plan)
        for r, p in zip(ref, pend):
            assert p.real is None
            assert p.start == r.start
            assert p.finish == r.finish
        assert flow.now() == lock.now()
        for r in RESOURCES:
            assert flow.free_at(r) == lock.free_at(r)

    def test_unknown_resource_and_negative_duration_rejected(self):
        flow = DataflowClock()
        flow.add_resource("cpu")
        with pytest.raises(ConfigError):
            flow.run("nope", 1.0)
        with pytest.raises(ConfigError):
            flow.run("cpu", -1.0)
        with pytest.raises(ConfigError):
            flow.free_at("nope")


class TestFinalize:
    def test_ready_task_overtakes_blocked_program_order(self):
        """B has no deps but was submitted after blocked A: EST fires it first."""
        _, flow = _twin_clocks()
        x = flow.run("gpu", 10.0, label="x")
        a = flow.run("cpu", 1.0, deps=(x,), label="a")
        b = flow.run("cpu", 2.0, label="b")
        assert (a.start, b.start) == (10.0, 11.0)  # provisional = lockstep
        flow.finalize()
        assert b.real.start == 0.0  # fired as soon as its operands resolved
        assert a.real.start == 10.0
        assert flow.now() == 11.0  # lockstep would have ended at 13.0
        _assert_valid_schedule([x, a, b], edges=[(1, 0)])

    def test_finalize_never_worse_than_lockstep(self):
        plan = [
            ("gpu", 4.0, ()),
            ("cpu", 1.0, (0,)),
            ("cpu", 2.0, ()),
            ("net", 1.0, (1,)),
            ("net", 0.5, (2,)),
        ]
        lock, flow = _twin_clocks()
        _replay(lock, plan)
        tasks = _replay(flow, plan)
        flow.finalize()
        assert flow.now() <= lock.now() + 1e-12
        edges = _plan_edges(plan)
        assert len(edges) == 3
        _assert_valid_schedule(tasks, edges)

    def test_virtual_join_over_pending_deps_is_retimed(self):
        _, flow = _twin_clocks()
        x = flow.run("gpu", 10.0, label="x")
        a = flow.run("cpu", 1.0, deps=(x,), label="a")
        b = flow.run("cpu", 2.0, label="b")
        j = flow.join([a, b])
        assert isinstance(j, PendingTask)
        assert j.finish == 13.0  # provisional: program order
        flow.finalize()
        assert j.finish == 11.0  # re-timed with the committed schedule

    def test_join_over_placed_deps_resolves_immediately(self):
        _, flow = _twin_clocks()
        t = flow.run("cpu", 1.0)
        flow.finalize()
        j = flow.join([t])
        assert isinstance(j, Task)
        assert j.finish == 1.0

    def test_empty_window_and_double_finalize_are_noops(self):
        _, flow = _twin_clocks()
        flow.finalize()
        t = flow.run("cpu", 1.0)
        flow.finalize()
        flow.finalize()
        assert t.real is not None
        assert flow.now() == 1.0

    def test_windows_compose_across_finalize(self):
        _, flow = _twin_clocks()
        t1 = flow.run("cpu", 2.0)
        flow.finalize()
        t2 = flow.run("cpu", 1.0, deps=(t1,))
        assert t2.start == 2.0  # provisional base synced to the real clock
        flow.finalize()
        assert t2.real.start == 2.0

    def test_advance_all_finalizes_and_syncs(self):
        _, flow = _twin_clocks()
        flow.run("cpu", 2.0)
        t = flow.advance_all()
        assert t == 2.0
        for r in RESOURCES:
            assert flow.free_at(r) == 2.0

    def test_trace_holds_committed_times(self):
        _, flow = _twin_clocks()
        flow.run("gpu", 10.0, label="x")
        flow.run("cpu", 2.0, label="b")
        flow.finalize()
        by_label = {t.label: t for t in flow.trace}
        assert by_label["b"].start == 0.0
        assert flow.trace_for("cpu") == [by_label["b"]]
        assert flow.busy_time("cpu") == 2.0


# -- hypothesis: random DAGs --------------------------------------------------

def dag_plans(max_tasks=14):
    """Random [(resource, duration, dep_indices)] task graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_tasks))
        plan = []
        for i in range(n):
            resource = draw(st.sampled_from(RESOURCES))
            duration = draw(st.floats(0.0, 4.0, allow_nan=False, width=32))
            deps = (
                draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
            )
            plan.append((resource, float(duration), tuple(sorted(deps))))
        return plan

    return build()


@pytest.mark.property
class TestSchedulerProperties:
    @settings(max_examples=120, deadline=None)
    @given(dag_plans())
    def test_schedule_valid_and_no_worse_than_lockstep(self, plan):
        lock, flow = _twin_clocks()
        ref = _replay(lock, plan)
        tasks = _replay(flow, plan)
        # provisional placement is exactly the lockstep one
        for r, p in zip(ref, tasks):
            assert p.start == r.start and p.finish == r.finish
        flow.finalize()
        _assert_valid_schedule(tasks, _plan_edges(plan))
        assert flow.now() <= lock.now() + 1e-9
        # work is conserved: same busy seconds per resource
        for resource in RESOURCES:
            assert flow.busy_time(resource) == pytest.approx(
                lock.busy_time(resource), abs=1e-9
            )

    @settings(max_examples=60, deadline=None)
    @given(dag_plans())
    def test_makespan_monotone_vs_no_overlap_ablation(self, plan):
        """Chaining every task behind its predecessor (the no-overlap
        ablation) can only lengthen the schedule."""
        chained = [
            (resource, duration, deps + ((i - 1,) if i else ()))
            for i, (resource, duration, deps) in enumerate(plan)
        ]
        _, flow = _twin_clocks()
        _replay(flow, plan)
        flow.finalize()
        _, serial = _twin_clocks()
        _replay(serial, chained)
        serial.finalize()
        assert flow.now() <= serial.now() + 1e-9


# -- integration: a dataflow context end to end --------------------------------

class TestDataflowContext:
    def test_train_bit_identical_and_no_worse_makespan(self):
        import repro

        def run(runtime):
            ctx = repro.api.session(runtime=runtime)
            rng = np.random.default_rng(3)
            x = rng.normal(size=(64, 12))
            y = rng.normal(size=(64, 3))
            model = repro.SecureMLP(ctx, 12, hidden=(8,), n_out=3)
            report = repro.SecureTrainer(ctx, model).train(x, y, batch_size=32)
            pred = repro.secure_predict(ctx, model, x[:32], batch_size=32).predictions
            return report, pred

        lock_report, lock_pred = run("lockstep")
        flow_report, flow_pred = run("dataflow")
        np.testing.assert_array_equal(lock_pred, flow_pred)
        assert flow_report.online_s <= lock_report.online_s + 1e-12
        assert flow_report.offline_s <= lock_report.offline_s + 1e-12

    def test_runtime_knob_validated(self):
        from repro.core.config import FrameworkConfig

        with pytest.raises(ConfigError):
            FrameworkConfig(runtime="warp")

    def test_snapshot_finalizes_open_window(self):
        import repro

        ctx = repro.api.session(runtime="dataflow")
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 12))
        model = repro.SecureMLP(ctx, 12, hidden=(8,), n_out=3)
        model.forward(
            __import__("repro").SharedTensor.from_plain(ctx, x, label="x"),
            training=False,
        )
        assert ctx.online_clock.pending_count > 0
        snap = ctx.telemetry.snapshot()
        assert ctx.online_clock.pending_count == 0
        assert snap.gauge("phase.sim_seconds", clock="online") == ctx.online_clock.now()

    def test_placed_tasks_do_not_accumulate_across_epochs(self):
        """Regression: a placed ``PendingTask`` kept its ``deps``, so a
        long-lived tensor's task chained back through every earlier
        window and training memory grew with the epoch count."""
        import gc

        import repro

        def live_pending():
            gc.collect()
            return sum(type(o) is PendingTask for o in gc.get_objects())

        ctx = repro.api.session(runtime="dataflow")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 12))
        y = np.eye(3)[rng.integers(0, 3, size=64)]
        trainer = repro.SecureTrainer(ctx, repro.SecureMLP(ctx, 12, hidden=(8,), n_out=3))
        trainer.train(x, y, batch_size=16)
        after_first = live_pending()
        trainer.train(x, y, batch_size=16)
        assert live_pending() <= after_first
