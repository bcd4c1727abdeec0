"""One model declaration: both twins are built from ``MODELS``.

Each model is declared once (``repro.core.models.MODELS``); the secure
model, its plain float twin, the conformance sweep's list and the
bench suite's lists are all read from it, and ``sync_plain`` is one
copy over the two ``parameters()`` lists.  The pins below were recorded
before the plain model classes were folded into the table: the seeded
plain initial weights and the ``PlainTimer`` seconds behind Tables 1-2
must not move.
"""

import hashlib

import numpy as np
import pytest
from conftest import make_ctx

from repro.audit.conformance import (
    CONFORMANCE_GEOMETRY,
    CONFORMANCE_MODELS,
    ConformanceCase,
    conformance_workload,
)
from repro.baselines.plain import PlainDense, PlainEmbedding, PlainModel, PlainTimer, PlainTrainer
from repro.bench.workloads import BENCH_MODELS, WORKLOAD_MODELS, build_plain_model, load_workload
from repro.core.models import (
    MODELS,
    SecureLinearRegression,
    SecureMLP,
    build_plain,
    build_secure,
    sync_plain,
)
from repro.util.errors import ConfigError, ShapeError


class TestOnePlaceToAddAModel:
    def test_harness_lists_are_read_from_models(self):
        assert CONFORMANCE_MODELS == tuple(MODELS)
        assert BENCH_MODELS + WORKLOAD_MODELS == list(MODELS)
        assert WORKLOAD_MODELS == ["attention", "recsys"]
        assert set(CONFORMANCE_GEOMETRY) == set(MODELS)

    def test_unknown_model_is_a_config_error(self):
        with pytest.raises(ConfigError, match="transformer"):
            build_plain("transformer", 4)


class TestSync:
    def test_mismatched_twin_raises_naming_layer_and_parameter(self):
        secure = SecureMLP(make_ctx(), 12, hidden=(8,), n_out=3)
        plain = build_plain("MLP", 12, hidden=(6,), n_out=3)
        before = [p.copy() for p in plain.parameters()]
        with pytest.raises(ShapeError, match=r"mlp0/weight.*\(12, 8\).*\(12, 6\)"):
            sync_plain(secure, plain)
        for got, want in zip(plain.parameters(), before):
            np.testing.assert_array_equal(got, want)

    def test_parameter_count_mismatch_raises(self):
        secure = SecureLinearRegression(make_ctx(), 4, n_out=1)
        plain = PlainModel([PlainEmbedding(4, 1, np.random.default_rng(0))])
        with pytest.raises(ShapeError, match="linreg: 2 parameters"):
            sync_plain(secure, plain)

    def test_layer_count_mismatch_raises(self):
        secure = build_secure("logistic", make_ctx(), 4)
        plain = PlainModel([PlainDense(4, 1, np.random.default_rng(0))])
        with pytest.raises(ShapeError, match="2 layers"):
            sync_plain(secure, plain)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_every_parameter_is_copied(self, name):
        geometry, _width = CONFORMANCE_GEOMETRY[name]
        secure = build_secure(name, make_ctx(), **geometry)
        plain = build_plain(name, seed=5, **geometry)
        sync_plain(secure, plain)
        for s, p in zip(secure.parameters(), plain.parameters(), strict=True):
            np.testing.assert_array_equal(p, s.decode())


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _seconds(build, x, y, batch):
    """PlainTimer cpu train and gpu train seconds."""
    return tuple(
        PlainTrainer(build(), PlainTimer(device)).train(x[:batch], y[:batch], batch_size=batch).seconds
        for device in ("cpu", "gpu")
    )


#: model -> (digest of the seed-0 plain init, in the secure twin's
#: parameter order; PlainTimer seconds of one batch, as _seconds returns)
PLAIN_PINS = {
    "MLP": ("fc548d2f418fd304", (0.0010041386666666669, 0.0011175808497777783)),
    "CNN": ("779abae547c1034d", (0.0010509866666666666, 0.0011978411133968252)),
    "RNN": ("4cd779d06f8ee29b", (0.0010073599999999988, 0.0013741584746666676)),
    "linear": ("4030d5c1bc0f6479", (0.0010009386666666668, 0.0010454320761904762)),
    "logistic": ("4030d5c1bc0f6479", (0.0010011093333333334, 0.001061433213968254)),
    "SVM": ("940babd189b21dcf", (0.0010007466666666666, 0.0010534321726984126)),
    "attention": ("d96f3c15cb5bfdb6", (0.0010084480000000008, 0.0012645955382857136)),
    "recsys": ("7c274220f6c2c260", (0.0010032639999999998, 0.0011175795611428573)),
    "MLP/MNIST": ("f69253233d69a48b", (0.020789824, 0.0011965494044444442)),
}


class TestPlainPins:
    @pytest.mark.parametrize("name", list(MODELS))
    def test_tiny_geometry(self, name):
        case = ConformanceCase(model=name, axis="baseline")
        x, y, geometry = conformance_workload(case)

        def build():
            return build_plain(name, seed=0, **geometry)

        digest, seconds = PLAIN_PINS[name]
        assert _digest(build().parameters()) == digest
        assert _seconds(build, x, y, case.batch_size) == seconds

    def test_mlp_mnist_bench_geometry(self):
        x, y, spec = load_workload("MLP", "MNIST", n_batches=1, batch_size=128)
        digest, seconds = PLAIN_PINS["MLP/MNIST"]
        assert _digest(build_plain_model(spec).parameters()) == digest
        assert _seconds(lambda: build_plain_model(spec), x, y, 128) == seconds
