"""Benchmark harness regenerating every table and figure of Section 7.

* :mod:`repro.bench.workloads` — the model x dataset grid of Section
  7.1, with the (documented) geometry reductions that keep a pure-Python
  run tractable;
* :mod:`repro.bench.harness` — runs one (model, dataset, system)
  configuration and extrapolates per-batch costs to paper-scale sample
  counts, and drives the many-client fleet stream (``run_fleet``);
* :mod:`repro.bench.reporting` — plain-text tables matching the paper's
  row/column structure.

The pytest-benchmark files under ``benchmarks/`` are thin wrappers over
this package; each prints its table/figure and asserts the paper's
*shape* claims (who wins, monotonicity, rough factors).
"""

from repro.bench.workloads import (
    WorkloadSpec,
    BENCH_DATASETS,
    BENCH_MODELS,
    benchmark_grid,
    build_secure_model,
    build_plain_model,
    load_workload,
)
from repro.bench.harness import (
    SecureRunResult,
    PlainRunResult,
    run_secure,
    run_plain,
    run_secure_inference,
)
from repro.bench.reporting import format_table, format_speedup_series, geomean

__all__ = [
    "WorkloadSpec",
    "BENCH_DATASETS",
    "BENCH_MODELS",
    "benchmark_grid",
    "build_secure_model",
    "build_plain_model",
    "load_workload",
    "SecureRunResult",
    "PlainRunResult",
    "run_secure",
    "run_plain",
    "run_secure_inference",
    "format_table",
    "format_speedup_series",
    "geomean",
]
