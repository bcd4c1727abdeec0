"""The resource-timeline simulated clock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgpu.clock import SimClock
from repro.util.errors import ConfigError


@pytest.fixture
def clock():
    c = SimClock()
    c.add_resource("a")
    c.add_resource("b")
    return c


class TestScheduling:
    def test_serial_on_one_resource(self, clock):
        t1 = clock.run("a", 1.0)
        t2 = clock.run("a", 2.0)
        assert (t1.start, t1.finish) == (0.0, 1.0)
        assert (t2.start, t2.finish) == (1.0, 3.0)

    def test_parallel_across_resources(self, clock):
        clock.run("a", 5.0)
        t = clock.run("b", 1.0)
        assert t.start == 0.0  # b is independent of a

    def test_dependency_delays_start(self, clock):
        ta = clock.run("a", 3.0)
        tb = clock.run("b", 1.0, deps=(ta,))
        assert tb.start == 3.0
        assert tb.finish == 4.0

    def test_dependency_and_resource_both_bind(self, clock):
        ta = clock.run("a", 2.0)
        clock.run("b", 5.0)
        tb = clock.run("b", 1.0, deps=(ta,))
        assert tb.start == 5.0  # resource busier than the dependency

    def test_none_deps_ignored(self, clock):
        t = clock.run("a", 1.0, deps=(None,))
        assert t.start == 0.0

    def test_zero_duration_join_point(self, clock):
        ta = clock.run("a", 2.0)
        tb = clock.run("b", 3.0)
        j = clock.join([ta, tb])
        assert j.finish == 3.0

    def test_join_on_resource_occupies_it(self, clock):
        ta = clock.run("a", 2.0)
        j = clock.join([ta], resource="b")
        assert j.resource == "b"
        assert clock.free_at("b") == 2.0

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(ConfigError):
            clock.run("a", -1.0)

    def test_unknown_resource_rejected(self, clock):
        with pytest.raises(ConfigError):
            clock.run("nope", 1.0)
        with pytest.raises(ConfigError):
            clock.free_at("nope")


class TestTimeQueries:
    def test_now_is_makespan(self, clock):
        clock.run("a", 1.0)
        clock.run("b", 7.0)
        assert clock.now() == 7.0

    def test_advance_all_synchronises(self, clock):
        clock.run("a", 1.0)
        clock.run("b", 7.0)
        clock.advance_all()
        assert clock.free_at("a") == 7.0

    def test_advance_all_explicit_time(self, clock):
        clock.advance_all(10.0)
        assert clock.now() == 10.0

    def test_empty_clock(self):
        assert SimClock().now() == 0.0


class TestBackfill:
    """A task fills the first idle gap of its resource that holds it whole."""

    @pytest.fixture
    def gapped(self, clock):
        wire = clock.run("b", 10.0)
        clock.run("a", 2.0)
        clock.run("a", 1.0, deps=(wire,))  # a idles from 2 to 10
        return clock

    def test_a_task_that_fits_fills_the_gap(self, gapped):
        t = gapped.run("a", 3.0)
        assert (t.start, t.finish) == (2.0, 5.0)
        assert gapped.free_at("a") == 11.0
        assert gapped.run("a", 5.0).start == 5.0  # what is left of the gap

    def test_a_task_too_long_for_the_gap_is_appended(self, gapped):
        t = gapped.run("a", 9.0)
        assert (t.start, t.finish) == (11.0, 20.0)


class TestTrace:
    def test_trace_records_tasks(self, clock):
        clock.run("a", 1.0, label="x")
        clock.run("b", 2.0, label="y")
        assert [t.label for t in clock.trace] == ["x", "y"]

    def test_trace_for_filters(self, clock):
        clock.run("a", 1.0)
        clock.run("b", 2.0)
        assert len(clock.trace_for("a")) == 1

    def test_tracing_can_be_disabled(self, clock):
        clock.set_tracing(False)
        clock.run("a", 1.0)
        assert clock.trace == []
        # timing still accumulates
        assert clock.now() == 1.0

    def test_task_duration(self, clock):
        t = clock.run("a", 2.5)
        assert t.duration == 2.5

    def test_busy_time_counts_work_after_since(self, clock):
        x = clock.run("b", 10.0, label="x")
        clock.run("a", 2.0, label="a1")
        clock.run("a", 1.0, deps=(x,), label="a2")  # idle on a from 2 to 10
        assert clock.busy_time("a") == 3.0
        assert clock.busy_time("a", since=1.0) == 2.0
        assert clock.busy_time("b") == 10.0


class TestJoinDefaults:
    """Regression: ``join([])`` (or all-``None`` deps) produced
    ``finish=0.0`` even while scheduled work was still running — the
    join point must default to ``now()``, the max free time of every
    resource involved, never a point in the past."""

    def test_empty_deps_join_anchors_at_now(self, clock):
        clock.run("a", 3.0)
        j = clock.join([])
        assert j.finish == 3.0  # pre-fix: 0.0

    def test_all_none_deps_join_anchors_at_now(self, clock):
        clock.run("b", 2.0)
        j = clock.join([None, None])
        assert j.finish == 2.0

    def test_fresh_clock_empty_join_is_zero(self, clock):
        assert clock.join([]).finish == 0.0

    def test_empty_join_with_tracing_disabled(self, clock):
        clock.set_tracing(False)
        clock.run("a", 1.5)
        assert clock.join([]).finish == 1.5
        assert clock.trace == []


# -- hypothesis: random task graphs -------------------------------------------

RESOURCES = ("cpu", "gpu", "net")


@st.composite
def dag_plans(draw, max_tasks=14):
    """Random ``[(resource, duration, dep indices)]`` task graphs."""
    plan = []
    for i in range(draw(st.integers(1, max_tasks))):
        resource = draw(st.sampled_from(RESOURCES))
        duration = draw(st.floats(0.0, 4.0, allow_nan=False, width=32))
        deps = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        plan.append((resource, float(duration), tuple(sorted(deps))))
    return plan


def _replay(plan, barrier=None):
    """Run ``plan`` on a fresh clock, calling ``advance_all(t)`` before
    task ``k`` when ``barrier`` is ``(k, t)``; also returns each task's
    ``(start, finish)`` as it was right after its own ``run``."""
    clock = SimClock()
    for resource in RESOURCES:
        clock.add_resource(resource)
    tasks, placed = [], []
    for k, (resource, duration, dep_idx) in enumerate(plan):
        if barrier is not None and barrier[0] == k:
            clock.advance_all(barrier[1])
        deps = tuple(tasks[i] for i in dep_idx)
        tasks.append(clock.run(resource, duration, deps=deps, label=f"t{len(tasks)}"))
        placed.append((clock.trace[-1].start, clock.trace[-1].finish))
    return clock, tasks, placed


def _program_order_starts(plan, barrier=None):
    """The frozen oracle: the placement before idle gaps were backfilled,
    each task at the later of its resource's last finish and its deps'
    finishes, in submission order."""
    last = dict.fromkeys(RESOURCES, 0.0)
    starts, finishes = [], []
    for k, (resource, duration, dep_idx) in enumerate(plan):
        if barrier is not None and barrier[0] == k:
            last = {r: max(free, barrier[1]) for r, free in last.items()}
        starts.append(max([last[resource]] + [finishes[j] for j in dep_idx]))
        finishes.append(starts[-1] + duration)
        last[resource] = finishes[-1]
    return starts


@pytest.mark.property
class TestPlacementProperties:
    @settings(max_examples=200, deadline=None)
    @given(dag_plans(), st.data())
    def test_placement_is_a_valid_backfill_schedule(self, plan, data):
        """Every dependency is honoured and no task starts later than in
        submission order; every resource is serial and busy for exactly
        its work; a placed task never moves; and after ``advance_all(t)``
        nothing starts before ``t``."""
        barrier = data.draw(
            st.none() | st.tuples(st.integers(0, len(plan) - 1), st.floats(0.0, 20.0, width=32))
        )
        clock, tasks, placed = _replay(plan, barrier)
        oracle = _program_order_starts(plan, barrier)
        for k, (task, (_resource, duration, dep_idx)) in enumerate(zip(tasks, plan)):
            assert task.start >= max((tasks[j].finish for j in dep_idx), default=0.0)
            assert task.start <= oracle[k]
            assert task.finish == task.start + duration
            if barrier is not None and k >= barrier[0]:
                assert task.start >= barrier[1]
        assert [(t.start, t.finish) for t in clock.trace] == placed
        for resource in RESOURCES:
            busy = sorted((t.start, t.finish) for t in tasks if t.resource == resource)
            busy = [(start, finish) for start, finish in busy if finish > start]
            assert all(a[1] <= b[0] for a, b in zip(busy, busy[1:]))
            work = sum(d for r, d, _ in plan if r == resource)
            assert clock.busy_time(resource) == pytest.approx(work, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(dag_plans())
    def test_makespan_monotone_vs_no_overlap_ablation(self, plan):
        """Chaining every task behind its predecessor (the no-overlap
        ablation) can only lengthen the schedule."""
        chained = [
            (resource, duration, deps + ((i - 1,) if i else ()))
            for i, (resource, duration, deps) in enumerate(plan)
        ]
        assert _replay(plan)[0].now() <= _replay(chained)[0].now()
