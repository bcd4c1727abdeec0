"""The six secure models: learning behaviour and structural checks."""

import numpy as np
import pytest
from conftest import separable_classification

from repro.core.models import (
    SecureCNN,
    SecureLinearRegression,
    SecureLogisticRegression,
    SecureMLP,
    SecureRNN,
    SecureSVM,
)
from repro.core.tensor import SharedTensor
from repro.core.training import SecureTrainer
from repro.core.inference import secure_predict
from repro.datasets import sequence_dataset
from repro.util.errors import ConfigError, ShapeError


def shared(ctx, arr, **kw):
    return SharedTensor.from_plain(ctx, np.asarray(arr, dtype=np.float64), **kw)


class TestLinearRegression:
    def test_learns_exact_linear_map(self, ctx, rng):
        x = rng.normal(size=(256, 8)) * 0.5
        w = rng.normal(size=(8, 2)) * 0.4
        y = x @ w
        model = SecureLinearRegression(ctx, 8, n_out=2)
        report = SecureTrainer(ctx, model, lr=0.25).train(x, y, epochs=12, batch_size=64)
        assert report.losses[-1] < 0.05 * report.losses[0]

    def test_structure(self, ctx):
        model = SecureLinearRegression(ctx, 5, n_out=3)
        assert len(model.parameters()) == 2  # W and b


class TestLogisticRegression:
    def test_learns_separable_labels(self, ctx, rng):
        x = rng.normal(size=(256, 6))
        w = rng.normal(size=(6, 1))
        y = (x @ w > 0).astype(float)
        model = SecureLogisticRegression(ctx, 6, n_out=1)
        report = SecureTrainer(ctx, model, lr=0.5).train(x, y, epochs=10, batch_size=64)
        assert report.losses[-1] < 0.6 * report.losses[0]

    def test_output_bounded(self, ctx, rng):
        """Eq. 9's whole point: the activation has an upper limit."""
        model = SecureLogisticRegression(ctx, 4, n_out=1)
        x = rng.normal(size=(64, 4)) * 10
        rep = secure_predict(ctx, model, x, batch_size=64)
        assert rep.predictions.min() >= -0.01
        assert rep.predictions.max() <= 1.01


class TestMLP:
    def test_architecture_from_paper(self, ctx):
        model = SecureMLP(ctx, input_dim=20)  # defaults: 128, 64, 10
        dense = [l for l in model.layers if hasattr(l, "weight")]
        assert [d.weight.shape for d in dense] == [(20, 128), (128, 64), (64, 10)]

    @pytest.mark.parametrize(
        "geometry, layer",
        [((0,), "mlp0"), ((4, (-1,)), "mlp0"), ((4, (8, 0)), "mlp1"), ((4, (8,), 0), "mlp1")],
    )
    def test_an_empty_layer_is_a_config_error_naming_it(self, ctx, geometry, layer):
        """``input_dim=0`` used to raise a bare ``OverflowError`` and a
        negative width a bare ``ValueError``."""
        with pytest.raises(ConfigError, match=f"^{layer}: "):
            SecureMLP(ctx, *geometry)

    def test_learns(self, ctx, rng):
        x = rng.normal(size=(128, 10)) * 0.5
        y = np.tanh(x @ (rng.normal(size=(10, 3)) * 0.5))
        model = SecureMLP(ctx, 10, hidden=(16,), n_out=3)
        report = SecureTrainer(ctx, model, lr=0.125).train(x, y, epochs=15, batch_size=64)
        assert report.losses[-1] < 0.7 * report.losses[0]


class TestCNN:
    def test_forward_shape(self, ctx, rng):
        model = SecureCNN(ctx, (8, 8, 1), conv_channels=2, hidden=8, n_out=4, kernel=3)
        x = rng.normal(size=(16, 64))
        rep = secure_predict(ctx, model, x, batch_size=16)
        assert rep.predictions.shape == (16, 4)

    def test_trains_one_step(self, ctx, rng):
        model = SecureCNN(ctx, (8, 8, 1), conv_channels=2, hidden=8, n_out=3, kernel=3)
        x = rng.normal(size=(16, 64))
        y = rng.normal(size=(16, 3))
        w_before = model.layers[0].weight.decode().copy()
        SecureTrainer(ctx, model, lr=0.1).train(x, y, epochs=1, batch_size=16)
        assert not np.allclose(model.layers[0].weight.decode(), w_before)


class TestSVM:
    def test_separates_data(self, ctx):
        x, y = separable_classification(256, 8, margin=2.0, seed=7)
        model = SecureSVM(ctx, 8)
        SecureTrainer(ctx, model, lr=0.25, monitor_loss=False).train(
            x, y, epochs=8, batch_size=64
        )
        rep = secure_predict(ctx, model, x, batch_size=64)
        acc = np.mean(np.sign(rep.predictions) == y[: rep.predictions.shape[0]])
        assert acc > 0.95

    def test_agrees_with_smo_reference(self, ctx):
        """Both optimise the hinge objective; on well-separated data the
        sign predictions must coincide."""
        from oracles import SMOSVM

        x, y = separable_classification(192, 6, margin=2.5, seed=11)
        secure = SecureSVM(ctx, 6)
        SecureTrainer(ctx, secure, lr=0.25, monitor_loss=False).train(
            x, y, epochs=10, batch_size=64
        )
        smo = SMOSVM(C=1.0).fit(x, y.ravel())
        sp = np.sign(secure_predict(ctx, secure, x, batch_size=64).predictions.ravel())
        assert np.mean(sp == smo.predict(x)[: sp.size]) > 0.95


class TestRNN:
    def test_forward_shape(self, ctx):
        model = SecureRNN(ctx, n_steps=3, step_features=4, hidden=6, n_out=5)
        x = np.random.default_rng(0).normal(size=(8, 12))
        rep = secure_predict(ctx, model, x, batch_size=8)
        assert rep.predictions.shape == (8, 5)

    def test_wrong_feature_count(self, ctx, rng):
        model = SecureRNN(ctx, n_steps=3, step_features=4, hidden=6, n_out=5)
        with pytest.raises(ShapeError):
            model.forward(shared(ctx, rng.normal(size=(8, 10))))

    def test_learns_sequence_task(self, ctx):
        x, y = sequence_dataset(128, 3, 6, seed=2)
        model = SecureRNN(ctx, 3, 6, hidden=8, n_out=10)
        report = SecureTrainer(ctx, model, lr=0.125).train(x, y, epochs=6, batch_size=64)
        assert report.losses[-1] < report.losses[0]
