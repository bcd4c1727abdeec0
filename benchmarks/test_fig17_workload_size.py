"""Fig. 17 — speedup as a function of workload size (SYNTHETIC).

Paper: sweeping the SYNTHETIC workload (the number of 32x64 matrices
processed together) from 1 MB to 4 GB, the ParSecureML-over-SecureML
improvement grows with workload size — small workloads cannot utilise
the GPU (Section 7.6 insight 3).

We reproduce the paper's design: the workload is one batch of N
synthetic matrices, so growing N grows the GEMM's row dimension and
with it the GPU utilisation.  Shape claim: per-batch speedup is
monotonically non-decreasing in N, with material growth end to end.
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureLinearRegression
from repro.core.training import SecureTrainer

FEATURES = 2048  # one 32x64 synthetic matrix per sample
ROW_SWEEP = [128, 512, 2048, 8192]


def marginal_speedup(n_rows: int) -> tuple[float, float]:
    """(workload_mb, speedup) for one batch of n_rows matrices."""
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(2 * n_rows, FEATURES))
    y = rng.normal(size=(2 * n_rows, 10)) * 0.1
    totals = {}
    for name, cfg in (
        ("par", FrameworkConfig.parsecureml()),
        ("sml", FrameworkConfig.secureml()),
    ):
        ctx = SecureContext(cfg)
        model = SecureLinearRegression(ctx, FEATURES, n_out=10)
        rep = SecureTrainer(ctx, model, lr=0.03125, monitor_loss=False).train(
            x, y, epochs=1, batch_size=n_rows
        )
        # steady-state per-batch cost: marginal online + amortised sharing
        totals[name] = rep.marginal_online_s + rep.sharing_offline_s / rep.batches
    workload_mb = n_rows * FEATURES * 8 / 1e6
    return workload_mb, totals["sml"] / totals["par"]


def test_fig17(benchmark):
    series = benchmark.pedantic(
        lambda: [marginal_speedup(n) for n in ROW_SWEEP], rounds=1, iterations=1
    )
    print()
    rows = [
        {"workload (MB)": mb, "matrices": n, "speedup (x)": s}
        for (mb, s), n in zip(series, ROW_SWEEP)
    ]
    print(format_table(rows, ["workload (MB)", "matrices", "speedup (x)"],
                       title="Fig. 17: speedup vs workload size (SYNTHETIC)"))
    speedups = [s for _, s in series]
    assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:])), (
        "speedup must grow with workload size"
    )
    assert speedups[-1] > 1.5 * speedups[0], "the growth must be material"
