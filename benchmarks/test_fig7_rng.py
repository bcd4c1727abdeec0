"""Fig. 7 — cuRAND on the GPU vs MT19937 on the CPU, by matrix dimension.

Paper: the CPU generator wins for small matrices; cuRAND only pays off
for large ones ("it brings performance benefits only when processing
large matrices") — which is why ParSecureML keeps random generation on
the CPU.  Shape claims: CPU faster at small n, GPU faster at large n, a
crossover exists in between.
"""

from repro.bench.reporting import format_table
from repro.simgpu.cost import V100_SPEC, XEON_E5_2670V3_SPEC

DIMS = [128, 256, 512, 1024, 2048, 4096, 8192, 16384]


def build_series():
    rows = []
    for n in DIMS:
        nbytes = n * n * 8
        cpu_s = XEON_E5_2670V3_SPEC.rng_seconds(nbytes)
        # GPU: cuRAND generator creation + generation + copying the
        # matrix back for the CPU-resident protocol steps.  The paper's
        # measurement pays generator setup per invocation (Fig. 7 is a
        # standalone generation benchmark), which is what pushes the
        # crossover to the thousands.
        gpu_s = (
            V100_SPEC.curand_seconds(nbytes, include_setup=True)
            + V100_SPEC.transfer_seconds(nbytes)
        )
        rows.append(
            {"dim n": n, "CPU MT19937 (s)": cpu_s, "GPU cuRAND (s)": gpu_s,
             "winner": "cpu" if cpu_s < gpu_s else "gpu"}
        )
    return rows


def test_fig7(benchmark):
    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    print()
    print(format_table(rows, ["dim n", "CPU MT19937 (s)", "GPU cuRAND (s)", "winner"],
                       title="Fig. 7: random generation, CPU vs GPU (n x n matrices)"))
    winners = [r["winner"] for r in rows]
    assert winners[0] == "cpu"  # small matrices: CPU wins
    assert winners[-1] == "gpu"  # large matrices: GPU wins
    # exactly one crossover (monotone advantage)
    flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
    assert flips == 1
