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


def pool_then_dense(ctx):
    """pool -> dense -> relu -> dense: a stack whose first layer has no
    parameters, so the first *trainable* layer is the dense ``d0``."""
    from repro.core.layers import SecureActivation, SecureAvgPool2D, SecureDense
    from repro.core.models import SecureModel

    model = SecureModel(ctx)
    model.layers = [
        SecureAvgPool2D(ctx, (4, 4, 1), 2, name="pool"),
        SecureDense(ctx, 4, 5, name="d0"),
        SecureActivation(ctx, "relu", name="d0act"),
        SecureDense(ctx, 5, 3, name="d1"),
    ]
    return model


def never_reuse(monkeypatch, *, every_product: bool = False):
    """Until the test ends, every context forgets what it could reuse
    before each online step: the reference for static-operand reuse,
    which has no off switch (``fresh_triplets`` changes the masks too).

    ``every_product`` also empties the device tables before every
    secure product, so each one uploads all five of its operands: the
    reference for one-upload-per-value."""
    begin = SecureContext.begin_batch

    def begin_batch(ctx):
        ctx.reset_mask_reuse()
        begin(ctx)

    monkeypatch.setattr(SecureContext, "begin_batch", begin_batch)
    if every_product:
        keep = SecureContext.device_keep

        def device_keep(ctx, triplet, x, y):
            ctx._free_device(ctx._device_rows())
            return keep(ctx, triplet, x, y)

        monkeypatch.setattr(SecureContext, "device_keep", device_keep)


def assert_hits_hold_their_operands(
    gpu, party_id, e, f, a_share, b_share, triplet, table, keep, trans=(False, False)
):
    """Never a stale hit: every row of ``table`` this product is about to
    read holds, byte for byte, the host operand it stands for."""
    slots = {"E": (e, trans[0]), "A": (a_share, trans[0]), "F": (f, trans[1]),
             "B": (b_share, trans[1]), "Z": (triplet.z, False)}

    def base(name):
        if name == "D":
            return base("A") - np.uint64(party_id) * base("E")
        array, flipped = slots[name]
        return np.swapaxes(array, -1, -2) if flipped else array

    rows = {**keep, "D": ("lead", keep["E"][1])} if "E" in keep else keep
    for name, key in rows.items():
        if key in table:
            held, want = table[key][0].require_live(), base(name)
            same = held.size == want.size and np.array_equal(held.reshape(want.shape), want)
            assert same, f"{gpu.name}: stale device row {key} read as {name}"


@pytest.fixture(autouse=True)
def no_stale_device_hit(monkeypatch):
    """Every test that multiplies on a server GPU is also a residency
    check (conformance cells and chaos runs included)."""
    import repro.protocols.beaver2pc as beaver2pc

    schedule = beaver2pc.schedule_secure_gemm

    def checked(gpu, party_id, e, f, a_share, b_share, triplet, deps=(), **kw):
        if kw.get("table") and kw.get("keep"):
            assert_hits_hold_their_operands(
                gpu, party_id, e, f, a_share, b_share, triplet,
                kw["table"], kw["keep"], kw.get("trans", (False, False)),
            )
        return schedule(gpu, party_id, e, f, a_share, b_share, triplet, deps, **kw)

    monkeypatch.setattr(beaver2pc, "schedule_secure_gemm", checked)
