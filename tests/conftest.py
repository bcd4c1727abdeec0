"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.fixedpoint.encoding import FixedPointEncoder


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def encoder():
    return FixedPointEncoder(13)


@pytest.fixture
def ctx():
    """A full ParSecureML context with the exact (dealer) activation path."""
    return SecureContext(FrameworkConfig.parsecureml())


@pytest.fixture
def ctx_secureml():
    """A SecureML-mode (CPU-only baseline) context."""
    return SecureContext(FrameworkConfig.secureml())


def make_ctx(**overrides) -> SecureContext:
    """Helper for tests needing custom configs."""
    return SecureContext(FrameworkConfig.parsecureml(**overrides))


def separable_classification(
    n_samples: int, n_features: int = 20, *, margin: float = 1.0, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Linearly separable binary data with labels in {-1, +1} (SVM tests)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n_features)
    w /= np.linalg.norm(w)
    x = rng.normal(size=(n_samples, n_features))
    labels = np.where(x @ w >= 0, 1.0, -1.0)
    x += np.outer(labels * margin / 2.0, w)  # push classes apart
    return x, labels.reshape(-1, 1)


def never_reuse(monkeypatch, *, every_product: bool = False):
    """Until the test ends, every context forgets what it could reuse
    before each online step: the reference for static-operand reuse,
    which has no off switch (``fresh_triplets`` changes the masks too).

    ``every_product`` also gives every row a secure product fills on a
    server GPU the ``op`` lifetime, so each product uploads all of its
    operands (five under ``beaver2pc``, both pairs under ``rep3``): the
    reference for one-upload-per-value."""
    begin = SecureContext.begin_batch

    def begin_batch(ctx):
        ctx.reset_mask_reuse()
        begin(ctx)

    monkeypatch.setattr(SecureContext, "begin_batch", begin_batch)
    if every_product:
        # both backends ask this once per product, before they read a row
        lifetime = SecureContext.lifetime

        def keep_nothing(ctx, *args, **kw):
            return dict.fromkeys(lifetime(ctx, *args, **kw), "op")

        monkeypatch.setattr(SecureContext, "lifetime", keep_nothing)


def device_table(ctx, party):
    """Server ``party``'s device rows: ``(kind, uid) -> (buffer, task)``."""
    from repro.core.rows import DEVICE_KINDS

    return {
        key: (row.held, row.task) for key, row in ctx.rows.table(party).items()
        if key[0] in DEVICE_KINDS
    }


def openings(ctx):
    """Every ``mask`` row, by mask uid: what that mask opened."""
    return {key[1]: row for key, row in ctx.rows.table(0).items() if key[0] == "mask"}


def assert_beaver_rows_hold_their_operands(ctx, *operands):
    """Never a stale hit under ``beaver2pc``: every row a product of
    ``operands`` can read on a server GPU — each one's share (``A`` /
    ``B``), the difference a mask opened it to (``E`` / ``F``) and the
    ``D = A_i - i E`` computed from it, each stream triplet's ``Z_i`` —
    holds, byte for byte, what it stands for, recomputed from the
    shares and the masks."""
    from repro.mpc.shares import reconstruct

    def base(tensor, array):  # flat, in the value's base layout
        return (np.swapaxes(array, -1, -2) if tensor.transposed else array).reshape(-1)

    opened = {}  # mask uid -> (operand, E or F its mask opened it to)
    for tensor in operands:
        value = base(tensor, reconstruct(*tensor.shares))
        for uid, row in openings(ctx).items():
            if row.value == tensor.uid:
                mask = reconstruct(row.mask.pair.share0, row.mask.pair.share1)
                opened[uid] = (tensor, value - mask.reshape(-1))
    for party, gpu in enumerate(ctx.server_gpu):
        if gpu is None:
            continue
        want = {("Z", t.uid): t.z[party].reshape(-1) for t in ctx._matrix_triplets.values()}
        want |= {("share", t.uid): base(t, t.shares[party]) for t in operands}
        for uid, (tensor, difference) in opened.items():
            want["open", uid] = difference
            want["lead", uid] = base(tensor, tensor.shares[party]) - np.uint64(party) * difference
        table = device_table(ctx, party)
        for key, array in want.items():
            if key in table:
                held = table[key][0].require_live()
                same = held.size == array.size and np.array_equal(held.reshape(-1), array)
                assert same, f"{gpu.name}: stale device row {key}"


def assert_rep3_rows_hold_their_shares(ctx, *operands):
    """Never a stale hit under ``rep3``: every row each party's device
    table holds for an operand — its share, its next share, their sum —
    holds, byte for byte, the host share it stands for."""
    for party in range(3):
        table = device_table(ctx, party)
        for tensor in operands:
            def base(array, tensor=tensor):
                return np.swapaxes(array, -1, -2) if tensor.transposed else array

            mine, nxt = (base(tensor.shares[(party + k) % 3]) for k in (0, 1))
            for what, want in (("share", mine), ("next", nxt), ("sum", mine + nxt)):
                if (what, tensor.uid) in table:
                    held = table[what, tensor.uid][0].require_live()
                    same = held.size == want.size and np.array_equal(held.reshape(want.shape), want)
                    assert same, f"party {party}: stale device row {(what, tensor.uid)}"


@pytest.fixture(autouse=True)
def no_stale_device_hit(monkeypatch):
    """Every test that multiplies on a server GPU is also a residency
    check (conformance cells and chaos runs included), on both backends."""
    from repro.protocols.beaver2pc import Beaver2PCBackend
    from repro.protocols.rep3 import Rep3Backend

    beaver_matmul = Beaver2PCBackend.matmul

    def checked(self, ctx, x, y, *, label, **kw):
        assert_beaver_rows_hold_their_operands(ctx, x, y)
        return beaver_matmul(self, ctx, x, y, label=label, **kw)

    monkeypatch.setattr(Beaver2PCBackend, "matmul", checked)
    matmul = Rep3Backend.matmul

    def checked_rep3(self, ctx, x, y, *, label, **kw):
        assert_rep3_rows_hold_their_shares(ctx, x, y)
        return matmul(self, ctx, x, y, label=label, **kw)

    monkeypatch.setattr(Rep3Backend, "matmul", checked_rep3)


FIG5_ORDER = ("E", "A", "F", "B", "Z")


def fig5_starts(free, slots) -> dict[str, float]:
    """Each ``(name, ready, seconds)`` slot's start when the H2D engine,
    idle from ``free``, issues them strictly in Fig. 5's order."""
    starts = {}
    for name, ready, seconds in sorted(slots, key=lambda slot: FIG5_ORDER.index(slot[0])):
        starts[name] = max(free, ready)
        free = starts[name] + seconds
    return starts


@pytest.fixture
def h2d_replay(monkeypatch):
    """Every server-GPU product's uploads as the clock placed them,
    beside the same uploads replayed in Fig. 5's order from the same
    engine-free time, readiness and durations: a list of ``(placed,
    fig5)`` dicts, slot name -> start."""
    from repro.pipeline.profiler import StepProfiler

    run_plan = StepProfiler.run_plan
    calls = []

    def finished(tasks) -> float:
        return max((t.finish for t in tasks if t is not None), default=0.0)

    def replayed(self, cpu, gpu, plan, shape, *, deps, label, **kw):
        if plan != "beaver2pc" or cpu is not None:  # not a GPU-placed product
            return run_plan(self, cpu, gpu, plan, shape, deps=deps, label=label, **kw)
        ready = {name: finished(deps[name]) for name in FIG5_ORDER}
        free = gpu.clock.free_at(gpu.h2d_engine)
        tasks = run_plan(self, cpu, gpu, plan, shape, deps=deps, label=label, **kw)
        placed = [t for t in tasks if t.resource == gpu.h2d_engine]
        names = [t.label.removeprefix(f"{label}:h2d:") for t in placed]
        slots = [(name, ready[name], t.duration) for name, t in zip(names, placed)]
        calls.append(({n: t.start for n, t in zip(names, placed)}, fig5_starts(free, slots)))
        return tasks

    monkeypatch.setattr(StepProfiler, "run_plan", replayed)
    return calls


def assert_no_upload_later_than_fig5(calls):
    """Every product's uploads start no later than in Fig. 5's order."""
    assert calls
    for placed, fig5 in calls:
        assert placed.keys() == fig5.keys()
        late = {name: (placed[name], fig5[name]) for name in placed if placed[name] > fig5[name]}
        assert not late, f"uploads later than in Fig. 5's order: {late}"
