"""Ablation — profiling-guided adaptive placement vs forced placement.

Section 4.2's claim: putting *everything* on the GPU loses to adaptive
placement (the paper measured 4.5% degradation from moving the cheap
offline steps to the GPU), and CPU-only obviously loses on the big
GEMMs.  We run a small and a large workload under the three placement
modes.

Shape claims: on the small workload, forced-GPU is no better than
adaptive (PCIe + launch overheads); on the large workload, forced-CPU
is far worse; adaptive is within a whisker of the best mode on both.
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureLinearRegression
from repro.core.training import SecureTrainer

MODES = ["adaptive", "cpu_always", "gpu_always"]


def run(features: int, mode: str) -> float:
    cfg = FrameworkConfig.parsecureml(placement_mode=mode)
    ctx = SecureContext(cfg)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, features)) * 0.5
    y = rng.normal(size=(256, 10)) * 0.1
    model = SecureLinearRegression(ctx, features, n_out=10)
    rep = SecureTrainer(ctx, model, monitor_loss=False).train(x, y, epochs=1, batch_size=128)
    return rep.marginal_online_s


def test_placement_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {
            (size, mode): run(features, mode)
            for size, features in (("small", 16), ("large", 4096))
            for mode in MODES
        },
        rounds=1,
        iterations=1,
    )
    print()
    rows = [
        {"workload": size, "mode": mode, "online s/batch": v}
        for (size, mode), v in sorted(results.items())
    ]
    print(format_table(rows, ["workload", "mode", "online s/batch"],
                       title="Ablation: adaptive vs forced placement (Section 4.2)"))
    for size in ("small", "large"):
        adaptive = results[(size, "adaptive")]
        best_forced = min(results[(size, "cpu_always")], results[(size, "gpu_always")])
        assert adaptive <= best_forced * 1.05, (
            f"{size}: adaptive must track the better device"
        )
    # small workloads: the GPU detour does not pay
    assert results[("small", "gpu_always")] >= results[("small", "adaptive")]
    # large workloads: CPU-only collapses
    assert results[("large", "cpu_always")] > 3 * results[("large", "adaptive")]
