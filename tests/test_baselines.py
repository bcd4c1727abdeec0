"""Plain baselines, SecureML mode, and the SMO reference SVM."""

import numpy as np
import pytest
from oracles import SMOSVM

from repro.baselines.plain import PlainTimer, PlainTrainer
from repro.baselines.secureml import make_parsecureml_context, make_secureml_context
from repro.core.models import build_plain
from repro.datasets import separable_classification, sequence_dataset
from repro.util.errors import ConfigError


class TestPlainModels:
    def test_linear_regression_learns(self, rng):
        x = rng.normal(size=(256, 8))
        y = x @ rng.normal(size=(8, 2))
        trainer = PlainTrainer(build_plain("linear", 8, n_out=2), PlainTimer("cpu"), lr=0.1)
        rep = trainer.train(x, y, epochs=10, batch_size=64)
        assert rep.losses[-1] < 0.1 * rep.losses[0]

    def test_mlp_learns(self, rng):
        x = rng.normal(size=(256, 10))
        y = np.tanh(x @ rng.normal(size=(10, 3)) * 0.5)
        trainer = PlainTrainer(build_plain("MLP", 10, hidden=(16,), n_out=3), PlainTimer("cpu"), lr=0.1)
        rep = trainer.train(x, y, epochs=10, batch_size=64)
        assert rep.losses[-1] < 0.8 * rep.losses[0]

    def test_cnn_runs(self, rng):
        x = rng.normal(size=(32, 64))
        y = rng.normal(size=(32, 3))
        model = build_plain("CNN", (8, 8, 1), conv_channels=2, hidden=8, n_out=3, kernel=3)
        rep = PlainTrainer(model, PlainTimer("cpu"), lr=0.05).train(
            x, y, epochs=2, batch_size=32
        )
        assert rep.batches == 2

    def test_svm_separates(self):
        x, y = separable_classification(256, 8, margin=2.0, seed=5)
        model = build_plain("SVM", 8)
        PlainTrainer(model, PlainTimer("cpu"), lr=0.25).train(x, y, epochs=8, batch_size=64)
        scores = x @ model.dense.w + model.dense.b
        assert np.mean(np.sign(scores) == y) > 0.95

    def test_rnn_learns(self):
        x, y = sequence_dataset(128, 3, 6, seed=2)
        model = build_plain("RNN", 3, 6, hidden=8, n_out=10)
        rep = PlainTrainer(model, PlainTimer("cpu"), lr=0.1).train(
            x, y, epochs=6, batch_size=64
        )
        assert rep.losses[-1] < rep.losses[0]

    def test_logistic_bounded(self, rng):
        model = build_plain("logistic", 4)
        timer = PlainTimer("cpu")
        out = model.forward(rng.normal(size=(16, 4)) * 10, timer, training=False)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unknown_activation(self):
        from repro.baselines.plain import PlainActivation

        with pytest.raises(ConfigError):
            PlainActivation("swish")


class TestPlainTiming:
    def test_gpu_faster_than_cpu_on_large_model(self, rng):
        x = rng.normal(size=(256, 512))
        y = rng.normal(size=(256, 10))
        times = {}
        for device in ("cpu", "gpu"):
            timer = PlainTimer(device)
            PlainTrainer(build_plain("MLP", 512, seed=0), timer, lr=0.1).train(
                x, y, epochs=1, batch_size=128
            )
            times[device] = timer.seconds
        assert times["gpu"] < times["cpu"]

    def test_gpu_charges_pcie(self, rng):
        timer = PlainTimer("gpu")
        PlainTrainer(build_plain("linear", 64), timer).train(
            rng.normal(size=(128, 64)), rng.normal(size=(128, 1)), batch_size=128
        )
        assert timer.clock.free_at("pcie") > 0

    def test_cpu_no_pcie(self, rng):
        timer = PlainTimer("cpu")
        PlainTrainer(build_plain("linear", 64), timer).train(
            rng.normal(size=(128, 64)), rng.normal(size=(128, 1)), batch_size=128
        )
        assert timer.clock.free_at("pcie") == 0

    def test_tensor_core_speeds_large_gemm(self, rng):
        x = rng.normal(size=(128, 2048))
        y = rng.normal(size=(128, 10))
        times = {}
        for tc in (False, True):
            timer = PlainTimer("gpu", tensor_core=tc)
            PlainTrainer(build_plain("MLP", 2048, hidden=(1024,), n_out=10, seed=0), timer).train(
                x, y, batch_size=128
            )
            times[tc] = timer.seconds
        assert times[True] < times[False]


class TestSecureMLFactories:
    def test_factories_produce_expected_modes(self):
        sml = make_secureml_context()
        par = make_parsecureml_context()
        assert sml.server_gpu == [None, None]
        assert par.server_gpu[0] is not None

    def test_transcript_equality_across_modes(self, rng):
        """Same seed -> identical trained parameters in both modes: every
        measured difference is systems work, not numerics (the paper's
        implicit claim)."""
        from repro.core.models import SecureMLP
        from repro.core.training import SecureTrainer

        x = rng.normal(size=(128, 8))
        y = rng.normal(size=(128, 2))
        weights = []
        for factory in (make_secureml_context, make_parsecureml_context):
            ctx = factory(seed=77)
            model = SecureMLP(ctx, 8, hidden=(6,), n_out=2)
            SecureTrainer(ctx, model, lr=0.125, monitor_loss=False).train(
                x, y, epochs=2, batch_size=64
            )
            weights.append([p.decode() for p in model.parameters()])
        for wa, wb in zip(weights[0], weights[1]):
            np.testing.assert_array_equal(wa, wb)


class TestSMO:
    def test_linear_separable_accuracy(self):
        x, y = separable_classification(200, 10, margin=2.0, seed=1)
        model = SMOSVM(C=1.0).fit(x, y.ravel())
        assert np.mean(model.predict(x) == y.ravel()) == 1.0

    def test_weight_vector_classifies(self):
        x, y = separable_classification(150, 5, margin=2.0, seed=2)
        model = SMOSVM(C=1.0).fit(x, y.ravel())
        w = model.weight_vector
        assert np.mean(np.sign(x @ w + model.b) == y.ravel()) == 1.0

    def test_bad_labels_rejected(self, rng):
        model = SMOSVM()
        with pytest.raises(ConfigError):
            model.fit(rng.normal(size=(10, 2)), np.arange(10.0))

    def test_predict_before_fit(self, rng):
        with pytest.raises(ConfigError):
            SMOSVM().decision_function(rng.normal(size=(5, 2)))

    def test_invalid_c(self):
        with pytest.raises(ConfigError):
            SMOSVM(C=0)
