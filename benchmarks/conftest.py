"""Shared session state for the benchmark suite.

Each benchmark file regenerates one table or figure of the paper's
Section 7.  The expensive part — running every (model, dataset) cell
under multiple system configurations — is memoised in a session-scoped
:class:`GridRunner`, so cells are computed once no matter how many
figures consume them.

Environment knobs:

* ``REPRO_BENCH_BATCHES``  — real batches measured per cell (default 2);
* ``REPRO_BENCH_QUICK=1``  — restrict the grid to MNIST + SYNTHETIC
  (a fast smoke of every figure's machinery);
* ``REPRO_BENCH_FULL_SCALE=1`` — run NIST at the paper's 512x512.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import run_plain, run_secure, run_secure_inference
from repro.bench.workloads import benchmark_grid
from repro.core.config import FrameworkConfig
from repro.simgpu.cost import V100_SPEC

BATCH_SIZE = 128
N_BATCHES = int(os.environ.get("REPRO_BENCH_BATCHES", "2"))
QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"
FULL_SCALE = os.environ.get("REPRO_BENCH_FULL_SCALE", "0") == "1"

# The two evaluated systems, exactly as the presets build them.
PAR_CONFIG = FrameworkConfig.parsecureml()
SML_CONFIG = FrameworkConfig.secureml()


def grid_cells() -> list[tuple[str, str]]:
    cells = benchmark_grid()
    if QUICK:
        cells = [(m, d) for (m, d) in cells if d in ("MNIST", "SYNTHETIC")]
    return cells


class GridRunner:
    """Lazily computes and memoises per-cell results."""

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _kw(self):
        return dict(n_batches=N_BATCHES, batch_size=BATCH_SIZE, full_scale=FULL_SCALE)

    def par(self, model, dataset, **overrides):
        cfg = PAR_CONFIG.but(**overrides) if overrides else PAR_CONFIG
        key = ("par", model, dataset, tuple(sorted(overrides.items())))
        return self._memo(key, lambda: run_secure(model, dataset, cfg, **self._kw()))

    def sml(self, model, dataset):
        key = ("sml", model, dataset)
        return self._memo(key, lambda: run_secure(model, dataset, SML_CONFIG, **self._kw()))

    def plain_cpu(self, model, dataset):
        key = ("cpu", model, dataset)
        return self._memo(key, lambda: run_plain(model, dataset, "cpu", **self._kw()))

    def plain_gpu(self, model, dataset):
        key = ("gpu", model, dataset)
        return self._memo(
            key, lambda: run_plain(model, dataset, "gpu", gpu_spec=V100_SPEC, **self._kw())
        )

    def par_infer(self, model, dataset):
        key = ("par-inf", model, dataset)
        return self._memo(
            key, lambda: run_secure_inference(model, dataset, PAR_CONFIG, **self._kw())
        )

    def sml_infer(self, model, dataset):
        key = ("sml-inf", model, dataset)
        return self._memo(
            key, lambda: run_secure_inference(model, dataset, SML_CONFIG, **self._kw())
        )


@pytest.fixture(scope="session")
def grid():
    return GridRunner()
