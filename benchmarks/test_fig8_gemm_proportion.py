"""Fig. 8 — share of GPU time spent in GEMM, by matrix dimension.

Paper: the GEMM proportion grows with matrix size and exceeds 50% at
n = 16384, motivating the Tensor-Core optimisation.  We reproduce it by
scheduling the full secure-GEMM flow (H2D transfers + kernels + D2H) on
the simulated device and reading the kernel/transfer split.
"""

from repro.bench.reporting import format_table
from repro.simgpu.clock import SimClock
from repro.simgpu.cost import V100_FP32_SPEC
from repro.simgpu.device import SimGPU

DIMS = [1024, 2048, 4096, 8192, 16384]


def gemm_fraction(n: int) -> float:
    """Run one n x n secure GEMM on the device; kernel share of total."""
    clock = SimClock()
    gpu = SimGPU(clock, V100_FP32_SPEC, "g")  # the FP32 GEMMs that motivate Tensor Cores
    # time only: charge transfers and kernels per the Fig. 5 schedule
    t_in = [
        clock.run(gpu.h2d_engine, gpu.spec.transfer_seconds(n * n * 8), label=f"h2d{i}")
        for i in range(5)
    ]
    k1 = clock.run(gpu.stream(0), gpu.spec.elementwise_seconds(2 * n * n * 8), deps=t_in[:2], label="D")
    k2 = clock.run(gpu.stream(0), gpu.spec.gemm_seconds(n, n, n), deps=(k1,), label="gemm1")
    k3 = clock.run(gpu.stream(0), gpu.spec.gemm_seconds(n, n, n), deps=(k2,), label="gemm2")
    k4 = clock.run(gpu.stream(0), gpu.spec.elementwise_seconds(3 * n * n * 8), deps=(k3,), label="sum")
    clock.run(gpu.d2h_engine, gpu.spec.transfer_seconds(n * n * 8), deps=(k4,), label="d2h")
    gemm_s = k2.duration + k3.duration
    return gemm_s / clock.now()


def test_fig8(benchmark):
    fractions = benchmark.pedantic(
        lambda: [gemm_fraction(n) for n in DIMS], rounds=1, iterations=1
    )
    print()
    rows = [
        {"dim n": n, "GEMM share of GPU time": f"{frac:.1%}"}
        for n, frac in zip(DIMS, fractions)
    ]
    print(format_table(rows, ["dim n", "GEMM share of GPU time"],
                       title="Fig. 8: GEMM time proportion vs matrix dimension"))
    # Shape: monotone increasing, crossing 50% by n = 16384.
    assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > 0.5
    assert fractions[0] < fractions[-1]
