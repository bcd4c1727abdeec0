"""End-to-end integration: cross-config invariants and system behaviour."""

import numpy as np
import pytest

from conftest import make_ctx
from repro.core.models import SecureLogisticRegression, SecureMLP
from repro.core.training import SecureTrainer
from repro.core.inference import secure_predict
from repro.baselines.plain import PlainMLP, PlainTimer, PlainTrainer


class TestNumericInvariance:
    """Every systems optimisation must leave the protocol transcript's
    *values* untouched; only simulated time and traffic may change."""

    @pytest.mark.parametrize(
        "override",
        [
            {"pipeline1": False},
            {"double_pipeline": False},
            {"compression": False},
            {"tensor_core": False},
            {"cpu_parallel": False},
            {"placement_mode": "cpu_always"},
            {"placement_mode": "gpu_always"},
            {"use_gpu": False, "placement_mode": "cpu_always"},
        ],
    )
    def test_trained_weights_invariant(self, rng, override):
        x = rng.normal(size=(96, 6))
        y = rng.normal(size=(96, 2))

        def train(**cfg):
            ctx = make_ctx(seed=31, **cfg)
            model = SecureMLP(ctx, 6, hidden=(5,), n_out=2)
            SecureTrainer(ctx, model, lr=0.125, monitor_loss=False).train(
                x, y, epochs=2, batch_size=32
            )
            return [p.decode() for p in model.parameters()]

        base = train()
        variant = train(**override)
        for a, b in zip(base, variant):
            np.testing.assert_array_equal(a, b)


class TestSecureMatchesPlainLearning:
    def test_same_weights_after_training_when_inits_match(self, rng):
        """Secure training follows the plain-float trajectory up to
        fixed-point rounding."""
        x = rng.normal(size=(128, 8)) * 0.5
        y = np.tanh(x @ (rng.normal(size=(8, 2)) * 0.5))

        ctx = make_ctx(seed=7)
        secure = SecureMLP(ctx, 8, hidden=(6,), n_out=2)
        plain = PlainMLP(8, hidden=(6,), n_out=2, seed=0)
        # copy the secure model's decoded init into the plain model
        dense_s = [l for l in secure.layers if hasattr(l, "weight")]
        dense_p = [l for l in plain.layers if hasattr(l, "w")]
        for ls, lp in zip(dense_s, dense_p):
            lp.w = ls.weight.decode().copy()
            lp.b = ls.bias.decode().copy()

        SecureTrainer(ctx, secure, lr=0.125, monitor_loss=False).train(
            x, y, epochs=3, batch_size=64
        )
        PlainTrainer(plain, PlainTimer("cpu"), lr=0.125).train(x, y, epochs=3, batch_size=64)

        for ls, lp in zip(dense_s, dense_p):
            np.testing.assert_allclose(ls.weight.decode(), lp.w, atol=0.02)


class TestTimingBehaviour:
    def test_pipeline1_reduces_online_time(self, rng):
        x = rng.normal(size=(128, 256))
        y = rng.normal(size=(128, 10))
        times = {}
        for p1 in (False, True):
            ctx = make_ctx(seed=3, pipeline1=p1, placement_mode="gpu_always")
            model = SecureMLP(ctx, 256, hidden=(128,), n_out=10)
            rep = SecureTrainer(ctx, model, monitor_loss=False).train(
                x, y, epochs=1, batch_size=128
            )
            times[p1] = rep.online_s
        assert times[True] < times[False]

    def test_double_pipeline_reduces_online_time(self, rng):
        x = rng.normal(size=(128, 256))
        y = rng.normal(size=(128, 10))
        times = {}
        for dp in (False, True):
            ctx = make_ctx(seed=3, double_pipeline=dp)
            model = SecureMLP(ctx, 256, hidden=(128, 64), n_out=10)
            rep = SecureTrainer(ctx, model, monitor_loss=False).train(
                x, y, epochs=1, batch_size=128
            )
            times[dp] = rep.online_s
        assert times[True] <= times[False]

    def test_secureml_slower_than_parsecureml(self, rng):
        x = rng.normal(size=(128, 512))
        y = rng.normal(size=(128, 10))
        times = {}
        for name, factory_kw in (
            ("sml", dict(use_gpu=False, placement_mode="cpu_always", pipeline1=False,
                         double_pipeline=False, compression=False, cpu_parallel=False)),
            ("par", {}),
        ):
            ctx = make_ctx(seed=3, **factory_kw)
            model = SecureMLP(ctx, 512, n_out=10)
            rep = SecureTrainer(ctx, model, monitor_loss=False).train(
                x, y, epochs=1, batch_size=128
            )
            times[name] = rep.online_s
        assert times["sml"] > 3 * times["par"]

    def test_compression_reduces_wire_bytes_with_stable_weights(self, rng):
        """With lr=0 the F-stream (weights) never changes, so every
        repeat transmission is a zero delta -> large savings."""
        # weight-heavy shapes (W streams >= activation streams) so the
        # compressible F-deltas dominate the traffic
        x = rng.normal(size=(128, 64))
        y = rng.normal(size=(128, 64))
        ctx = make_ctx(seed=5)
        model = SecureMLP(ctx, 64, hidden=(64,), n_out=64)
        rep = SecureTrainer(ctx, model, lr=0.0, monitor_loss=False).train(
            x, y, epochs=3, batch_size=32
        )
        assert rep.compression_savings > 0.2

    def test_inference_report_consistency(self, rng):
        ctx = make_ctx(seed=9)
        model = SecureMLP(ctx, 16, hidden=(8,), n_out=2)
        rep = secure_predict(ctx, model, rng.normal(size=(96, 16)), batch_size=32)
        assert rep.batches == 3
        assert rep.total_s == pytest.approx(rep.offline_s + rep.online_s)
