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


def never_reuse(monkeypatch):
    """Until the test ends, every context forgets what it could reuse
    before each online step: the reference for static-operand reuse,
    which has no off switch (``fresh_triplets`` changes the masks too)."""
    begin = SecureContext.begin_batch

    def begin_batch(ctx):
        ctx.reset_mask_reuse()
        begin(ctx)

    monkeypatch.setattr(SecureContext, "begin_batch", begin_batch)
