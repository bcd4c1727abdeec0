"""SecureTrainer / inference drivers and their reports."""

import numpy as np
import pytest

from conftest import make_ctx
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.models import SecureLinearRegression, SecureMLP
from repro.core.training import SecureTrainer, TrainReport
from repro.util.errors import ConfigError


def small_problem(rng, n=128, d=6, out=2):
    x = rng.normal(size=(n, d)) * 0.5
    y = x @ (rng.normal(size=(d, out)) * 0.4)
    return x, y


class TestTrainer:
    def test_report_fields_populated(self, ctx, rng):
        x, y = small_problem(rng)
        model = SecureLinearRegression(ctx, 6, n_out=2)
        rep = SecureTrainer(ctx, model, lr=0.1).train(x, y, epochs=2, batch_size=64)
        assert rep.batches == 4
        assert rep.samples == 256
        assert rep.dataset_samples == 128
        assert rep.offline_s > 0
        assert rep.online_s > 0
        assert rep.server_bytes > 0
        assert len(rep.batch_online_s) == 4
        assert len(rep.losses) == 4

    def test_offline_split_into_sharing_and_setup(self, ctx, rng):
        x, y = small_problem(rng)
        model = SecureLinearRegression(ctx, 6, n_out=2)
        rep = SecureTrainer(ctx, model, lr=0.1).train(x, y, epochs=1, batch_size=64)
        assert rep.sharing_offline_s > 0
        assert rep.setup_offline_s > 0  # triplet streams generated lazily
        assert rep.offline_s == pytest.approx(rep.sharing_offline_s + rep.setup_offline_s)

    def test_extrapolation_math(self):
        rep = TrainReport(
            dataset_samples=100,
            sharing_offline_s=2.0,
            setup_offline_s=1.0,
            batch_online_s=[0.9, 0.5, 0.5],
        )
        off, on = rep.extrapolate(paper_samples=1000, paper_batches=50)
        assert off == pytest.approx(2.0 * 10 + 1.0)
        assert on == pytest.approx(0.5 * 50)  # first batch excluded

    def test_max_batches_bounds_work(self, ctx, rng):
        x, y = small_problem(rng, n=512)
        model = SecureLinearRegression(ctx, 6, n_out=2)
        rep = SecureTrainer(ctx, model, lr=0.1).train(
            x, y, epochs=10, batch_size=64, max_batches=3
        )
        assert rep.batches == 3

    def test_input_validation(self, ctx, rng):
        model = SecureLinearRegression(ctx, 6, n_out=2)
        trainer = SecureTrainer(ctx, model)
        with pytest.raises(ConfigError):
            trainer.train(rng.normal(size=(10, 6)), rng.normal(size=(12, 2)))
        with pytest.raises(ConfigError):
            trainer.train(rng.normal(size=(10, 6)), rng.normal(size=(10, 2)), batch_size=64)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_a_batch_size_below_one_is_a_config_error(self, ctx, rng, batch_size):
        trainer = SecureTrainer(ctx, SecureLinearRegression(ctx, 6, n_out=2))
        with pytest.raises(ConfigError, match=r"batch_size must be >= 1"):
            trainer.train(rng.normal(size=(10, 6)), rng.normal(size=(10, 2)), batch_size=batch_size)

    @pytest.mark.parametrize("max_batches", [0, -4])
    def test_max_batches_below_one_is_a_config_error(self, ctx, rng, max_batches):
        trainer = SecureTrainer(ctx, SecureLinearRegression(ctx, 6, n_out=2))
        with pytest.raises(ConfigError, match=r"max_batches must be >= 1"):
            trainer.train(rng.normal(size=(10, 6)), rng.normal(size=(10, 2)), batch_size=5,
                          max_batches=max_batches)  # fmt: skip

    def test_monitor_loss_can_be_disabled(self, ctx, rng):
        x, y = small_problem(rng)
        model = SecureLinearRegression(ctx, 6, n_out=2)
        rep = SecureTrainer(ctx, model, monitor_loss=False).train(
            x, y, epochs=1, batch_size=64
        )
        assert rep.losses == []


class TestInference:
    def test_predictions_match_direct_forward(self, ctx, rng):
        x, _ = small_problem(rng)
        model = SecureMLP(ctx, 6, hidden=(8,), n_out=2)
        rep = secure_predict(ctx, model, x, batch_size=64)
        assert rep.predictions.shape == (128, 2)
        assert rep.batches == 2
        # second run gives the same numbers (deterministic protocol given state)
        assert rep.online_s > 0

    def test_rejects_bad_input(self, ctx):
        model = SecureLinearRegression(ctx, 6, n_out=2)
        with pytest.raises(ConfigError):
            secure_predict(ctx, model, np.zeros((4, 3, 2)))

    def test_inference_cheaper_than_training(self, rng):
        """Forward-only must cost less online time than forward+backward."""
        x, y = small_problem(rng, n=128)
        ctx_t = make_ctx(seed=1)
        model_t = SecureLinearRegression(ctx_t, 6, n_out=2)
        train_rep = SecureTrainer(ctx_t, model_t, monitor_loss=False).train(
            x, y, epochs=1, batch_size=64
        )
        ctx_i = make_ctx(seed=1)
        model_i = SecureLinearRegression(ctx_i, 6, n_out=2)
        infer_rep = secure_predict(ctx_i, model_i, x, batch_size=64)
        assert np.mean(infer_rep.batch_online_s[1:]) < train_rep.marginal_online_s


class TestAblationDefaults:
    def test_defaults_reproduce_legacy_weights(self):
        """The ParSecureML preset is the default config: training under
        either lands on bit-identical weights."""

        def train_weights(cfg):
            ctx = SecureContext(cfg)
            model = SecureMLP(ctx, 48, hidden=(24, 12), n_out=4)
            rng = np.random.default_rng(0)
            x, y = rng.normal(size=(192, 48)), rng.normal(size=(192, 4))
            SecureTrainer(ctx, model, lr=0.03125).train(x, y, batch_size=64, max_batches=3)
            return np.concatenate([p.decode().ravel() for p in model.parameters()])

        np.testing.assert_array_equal(
            train_weights(FrameworkConfig.parsecureml()), train_weights(FrameworkConfig())
        )
