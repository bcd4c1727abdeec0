"""The H2D engine's issue order: Fig. 5's order with conservative backfill.

``issue_order`` may let a later upload go first only where that delays
nothing, so two things hold for any engine state: every slot starts no
later than under the plain ``E -> A -> F -> B -> Z`` order, and the
engine does the same work without overlap.  The property test draws the
planner's whole input space (engine-free time, per-slot readiness and
size, any subset of slots already resident); the end-to-end checks hold
the clock's real placements on a warm step of each train workload to a
Fig. 5 replay of the same inputs.
"""

import numpy as np
import pytest
from conftest import FIG5_ORDER, assert_no_upload_later_than_fig5, fig5_starts
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.pipeline.scheduler import issue_order

times = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False)
seconds = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)


@st.composite
def engine_states(draw):
    """(free, slots): the engine's idle time and the non-resident slots,
    ``(name, ready, seconds)`` in Fig. 5's order."""
    uploaded = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    slots = [(name, draw(times), draw(seconds)) for name, up in zip(FIG5_ORDER, uploaded) if up]
    return draw(times), slots


@pytest.mark.property
class TestIssueOrderProperty:
    @settings(max_examples=500, deadline=None)
    @given(engine_states())
    def test_no_slot_starts_later_and_the_engine_does_the_same_work(self, state):
        free, slots = state
        plan = issue_order(free, slots)
        fig5 = fig5_starts(free, slots)
        assert sorted(name for name, _ in plan) == sorted(fig5)
        spec = {name: (ready, secs) for name, ready, secs in slots}
        for name, start in plan:
            assert start <= fig5[name]
            assert start >= spec[name][0]  # never before its operand exists
        # one engine: serial, no overlap, so busy for exactly the slots' total
        finish = free
        for name, start in plan:
            assert start >= finish
            finish = start + spec[name][1]

    def test_a_ready_share_fills_the_wait_for_the_exchange(self):
        # E/F arrive at 10; A_i/B_i are ready at 0 and take 4 each
        slots = [("E", 10.0, 1.0), ("A", 0.0, 4.0), ("F", 10.0, 1.0), ("B", 0.0, 4.0)]
        assert issue_order(0.0, slots) == [("A", 0.0), ("B", 4.0), ("E", 10.0), ("F", 11.0)]

    def test_a_backfill_that_would_delay_the_next_slot_waits(self):
        slots = [("E", 3.0, 1.0), ("A", 0.0, 4.0), ("F", 3.0, 1.0)]
        assert issue_order(0.0, slots) == [("E", 3.0), ("A", 4.0), ("F", 8.0)]


# --------------------------------------------------- warm steps, end to end


def _one_hot(rng, n, width):
    y = np.zeros((n, width))
    y[np.arange(n), rng.integers(0, width, size=n)] = 1.0
    return y


TRAIN_WORKLOADS = {  # perf/'s three train workloads: model, batch, features, classes
    "train_mlp": (lambda ctx: repro.SecureMLP(ctx, 784, hidden=(128, 128), n_out=10), 128, 784, 10),
    "train_cnn": (lambda ctx: repro.SecureCNN(ctx, (28, 28, 1)), 16, 784, 10),
    "train_attention": (lambda ctx: repro.SecureAttention(ctx, 4, 16), 32, 64, 3),
}


@pytest.mark.parametrize("workload", sorted(TRAIN_WORKLOADS))
def test_warm_train_step_uploads_no_later_than_fig5(workload, h2d_replay):
    build, batch, features, classes = TRAIN_WORKLOADS[workload]
    rng = np.random.default_rng(0)
    x = 0.5 * rng.standard_normal((2 * batch, features))
    y = _one_hot(rng, 2 * batch, classes)
    ctx = repro.SecureContext.create(repro.FrameworkConfig(seed=0, trace=True))
    trainer = repro.SecureTrainer(ctx, build(ctx), monitor_loss=False)
    trainer.train(x, y, batch_size=batch)  # deals every stream
    del h2d_replay[:]
    trainer.train(x[:batch], y[:batch], batch_size=batch)
    assert_no_upload_later_than_fig5(h2d_replay)
    earlier = sum(placed[n] < fig5[n] for placed, fig5 in h2d_replay for n in placed)
    if workload != "train_attention":  # its transfers hide behind the kernels either way
        assert earlier > 0
