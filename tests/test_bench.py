"""Benchmark harness: grid, workload loading, runs, reporting."""

import numpy as np
import pytest

from repro.bench.harness import run_plain, run_secure, run_secure_inference
from repro.bench.reporting import format_speedup_series, format_table, geomean
from repro.bench.workloads import (
    BENCH_DATASETS,
    BENCH_MODELS,
    benchmark_grid,
    build_plain_model,
    build_secure_model,
    load_workload,
)
from repro.core.config import FrameworkConfig
from conftest import make_ctx
from repro.util.errors import ConfigError


class TestGrid:
    def test_grid_matches_paper_table2(self):
        """Table 2/3 enumerate 26 rows: 5 models x 5 datasets + RNN on
        SYNTHETIC only."""
        cells = benchmark_grid()
        assert len(cells) == 26
        assert ("RNN", "SYNTHETIC") in cells
        assert ("RNN", "MNIST") not in cells

    def test_models_and_datasets(self):
        assert set(BENCH_MODELS) == {"CNN", "MLP", "linear", "logistic", "SVM", "RNN"}
        assert set(BENCH_DATASETS) == {"VGGFace2", "NIST", "SYNTHETIC", "MNIST", "CIFAR-10"}


class TestLoadWorkload:
    def test_mnist_mlp(self):
        x, y, spec = load_workload("MLP", "MNIST", n_batches=1, batch_size=32)
        assert x.shape == (32, 784)
        assert spec.paper_batches == 60_000 // 32

    def test_nist_reduced_by_default(self):
        _, _, spec = load_workload("MLP", "NIST", n_batches=1, batch_size=8)
        assert spec.image_shape == (128, 128, 1)
        assert spec.geometry_reduced

    def test_nist_full_scale_flag(self):
        _, _, spec = load_workload("linear", "NIST", n_batches=1, batch_size=2, full_scale=True)
        assert spec.image_shape == (512, 512, 1)
        assert not spec.geometry_reduced

    def test_svm_gets_binary_labels(self):
        _, y, _ = load_workload("SVM", "MNIST", n_batches=1, batch_size=16)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_rnn_only_on_synthetic(self):
        with pytest.raises(ConfigError):
            load_workload("RNN", "MNIST")

    def test_conv_stride_scales_with_image(self):
        _, _, small = load_workload("CNN", "MNIST", n_batches=1, batch_size=4)
        _, _, big = load_workload("CNN", "VGGFace2", n_batches=1, batch_size=4)
        assert small.conv_stride == 1
        assert big.conv_stride > 1

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            load_workload("transformer", "MNIST")


class TestModelBuilders:
    @pytest.mark.parametrize("model", BENCH_MODELS)
    def test_secure_and_plain_builders(self, model):
        ds = "SYNTHETIC" if model == "RNN" else "MNIST"
        _, _, spec = load_workload(model, ds, n_batches=1, batch_size=8)
        ctx = make_ctx()
        assert build_secure_model(ctx, spec) is not None
        assert build_plain_model(spec) is not None


class TestHarnessRuns:
    def test_secure_run_result_fields(self):
        res = run_secure(
            "linear",
            "MNIST",
            FrameworkConfig.parsecureml(),
            n_batches=2,
            batch_size=32,
        )
        assert res.measured_batches == 2
        assert res.per_batch_online_s > 0
        assert res.sharing_offline_s > 0
        assert res.total_s(10) == pytest.approx(res.offline_s(10) + res.online_s(10))

    def test_plain_run(self):
        res = run_plain("linear", "MNIST", "cpu", n_batches=2, batch_size=32)
        assert res.per_batch_s > 0
        assert res.total_s(10) == pytest.approx(10 * res.per_batch_s)

    def test_inference_runs(self):
        cfg = FrameworkConfig.parsecureml()
        sec = run_secure_inference("linear", "MNIST", cfg, n_batches=2, batch_size=32)
        assert sec.per_batch_online_s > 0

    def test_inference_honours_full_scale(self):
        cfg = FrameworkConfig.parsecureml()
        res = run_secure_inference(
            "linear", "NIST", cfg, n_batches=1, batch_size=4, full_scale=True
        )
        assert res.spec.geometry_reduced is False
        assert res.spec.image_shape == (512, 512, 1)

    def test_speedup_direction(self):
        """The headline claim at small scale: ParSecureML beats SecureML."""
        kw = dict(n_batches=2, batch_size=32)
        par = run_secure("MLP", "MNIST", FrameworkConfig.parsecureml(), **kw)
        sml = run_secure("MLP", "MNIST", FrameworkConfig.secureml(), **kw)
        assert sml.total_s() > par.total_s()
        assert sml.online_s() > par.online_s()


class TestReporting:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 2.0]) == 2.0  # zeros skipped

    def test_format_table(self):
        rows = [{"model": "MLP", "speedup": 12.5}, {"model": "CNN", "speedup": 3.25}]
        text = format_table(rows, ["model", "speedup"], title="T")
        assert "MLP" in text and "12.50" in text and "T" in text

    def test_format_speedup_series(self):
        text = format_speedup_series(["a", "b"], [2.0, 4.0], title="S")
        assert "geomean" in text
        assert "#" in text
