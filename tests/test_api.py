"""The public API facade: ``repro``/``repro.api`` exports and session wiring."""

from __future__ import annotations

import numpy as np

import repro
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext


class TestFacade:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_core_surface(self):
        assert repro.api.session is not None
        assert repro.SecureContext is SecureContext
        assert repro.FrameworkConfig is FrameworkConfig
        assert callable(repro.secure_matmul)
        assert callable(repro.secure_predict)
        assert repro.Telemetry is not None

    def test_deep_imports_keep_working(self):
        from repro.core.context import SecureContext as deep  # noqa: F401
        from repro.telemetry import export_chrome_trace  # noqa: F401


class TestSession:
    def test_default_session_is_parsecureml(self):
        ctx = repro.api.session()
        assert isinstance(ctx, SecureContext)
        assert ctx.config.use_gpu and ctx.config.compression
        assert ctx.telemetry is not None

    def test_explicit_config_is_used(self):
        cfg = FrameworkConfig.secureml()
        ctx = repro.api.session(config=cfg)
        assert ctx.config is cfg
        assert not ctx.config.use_gpu

    def test_keyword_overrides(self):
        ctx = repro.api.session(compression=False, seed=7)
        assert not ctx.config.compression
        assert ctx.config.seed == 7
        assert ctx.config.use_gpu  # untouched fields keep their defaults

    def test_overrides_compose_with_config(self):
        ctx = repro.api.session(FrameworkConfig.secureml(), trace=True)
        assert not ctx.config.use_gpu
        assert ctx.config.trace

    def test_create_classmethod(self):
        ctx = SecureContext.create()
        assert isinstance(ctx, SecureContext)
        assert SecureContext.create(FrameworkConfig.secureml()).config.use_gpu is False

    def test_session_round_trip(self):
        """A session computes correctly and its telemetry saw the work."""
        ctx = repro.api.session()
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(8, 6)), rng.normal(size=(6, 4))
        x = repro.SharedTensor.from_plain(ctx, a)
        y = repro.SharedTensor.from_plain(ctx, b)
        out = repro.secure_matmul(x, y, label="rt")
        np.testing.assert_allclose(out.decode(), a @ b, atol=1e-2)
        snap = ctx.telemetry.snapshot()
        assert snap.counter("ops.invocations", op="matmul") == 1
        spans = snap.spans("op.rt")
        assert "op.rt" in [s.name for s in spans]
        trunc = next(s for s in spans if s.name == "op.rt:trunc")
        assert trunc.depth == 1  # the truncation nests inside the matmul span
