"""Fig. 15 — benefit of running GEMM on Tensor Cores.

Paper: +3.11% average, smaller than the CPU optimisation, with the
largest gains where large GEMMs dominate GPU time (Section 7.3's third
observation, consistent with Fig. 8).  Shape claims: never hurts, the
average gain is a small fraction of total time, and GEMM-heavy cells
gain more than launch-bound ones.
"""

from conftest import grid_cells
from repro.bench.reporting import format_table
from repro.simgpu.cost import V100_FP32_SPEC


def build(grid):
    rows = []
    for model, dataset in grid_cells():
        with_tc = grid.par(model, dataset)
        without = grid.par(model, dataset, gpu_spec=V100_FP32_SPEC)
        rows.append(
            {
                "benchmark": f"{dataset}/{model}",
                "improvement": without.total_s() / with_tc.total_s() - 1.0,
                "online_improvement": without.online_s() / with_tc.online_s() - 1.0,
            }
        )
    return rows


def test_fig15(grid, benchmark):
    rows = benchmark.pedantic(lambda: build(grid), rounds=1, iterations=1)
    print()
    printable = [
        {"benchmark": r["benchmark"], "Tensor-Core benefit": f"{r['improvement']:+.2%}"}
        for r in rows
    ]
    print(format_table(printable, ["benchmark", "Tensor-Core benefit"],
                       title="Fig. 15: Tensor-Core benefit (paper avg +3.1%)"))
    gains = [r["improvement"] for r in rows]
    assert all(g >= -1e-9 for g in gains), "Tensor Cores must never hurt"
    mean_gain = sum(gains) / len(gains)
    assert 0.0 <= mean_gain < 0.5, f"mean gain {mean_gain:.1%}: should be a small fraction"
    # the spread exists: some cells benefit clearly more than others
    assert max(gains) > 2 * max(min(gains), 1e-6) or max(gains) > 0.01
