"""Analytical cost model calibrated to the paper's platform.

The evaluation cluster in Section 7.1: per node, 2x Intel Xeon E5-2670v3
+ one NVIDIA Tesla V100, PCIe 3.0 x16, nodes linked by 100 Gb/s 4xEDR
InfiniBand.  The constants below model that hardware at the fidelity the
paper's claims need:

* **GEMM** on the GPU: roofline of compute (peak TFLOP/s scaled by a
  size-dependent utilisation — small matrices cannot fill 80 SMs) and
  memory bandwidth, plus a fixed kernel-launch overhead.  The
  utilisation curve ``flops / (flops + K)`` reproduces the paper's
  "GPUs want large workloads" behaviour (Fig. 17, Table 2's MNIST rows).
* **Tensor Cores**: a higher peak for GEMM (cublasSgemmEx with
  CUBLAS_TENSOR_OP_MATH, Section 5.2), gated by the same utilisation —
  matching the Markidis et al. observation of 2.5-12x over FP32 cuBLAS
  that the paper cites.
* **PCIe**: effective bandwidth below the 16 GB/s spec plus a fixed
  per-transfer latency; this is what the double pipeline overlaps.
* **CPU**: a deliberately modest effective GEMM rate.  The paper's
  SecureML reimplementation and its "original" CPU baselines share one
  CPU code base whose measured numbers (Tables 1-3) imply tens of
  GFLOP/s, not the machine's 880 GFLOP/s peak; we calibrate to the
  *measured ratios* (SecureML ~2x plain CPU, SecureML ~250x plain GPU).

Timing claims in this reproduction are therefore *model-derived*; the
numerics are real.  See DESIGN.md Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import check_positive


@dataclass(frozen=True)
class DeviceSpec:
    """Performance envelope of one simulated GPU."""

    name: str
    fp32_tflops: float  # peak FP32 GEMM throughput
    tensor_tflops: float  # peak Tensor-Core GEMM throughput (FP16 in, FP32 acc)
    mem_bw_gbps: float  # device memory bandwidth (GB/s)
    pcie_gbps: float  # effective host<->device bandwidth (GB/s)
    pcie_latency_s: float  # per-transfer setup latency
    kernel_launch_s: float  # per-kernel launch overhead
    util_knee_flops: float  # K in util = flops / (flops + K)
    curand_gbps: float  # on-device RNG generation rate (GB/s)
    curand_setup_s: float  # generator creation / warm-up cost
    memory_bytes: int  # device memory capacity

    def utilization(self, flops: float) -> float:
        """Fraction of peak achievable for a kernel of ``flops`` work."""
        if flops <= 0:
            return 1.0
        return flops / (flops + self.util_knee_flops)

    def gemm_seconds(
        self,
        m: int,
        k: int,
        n: int,
        *,
        batch: int = 1,
        tensor_core: bool = False,
        dtype_bytes: int = 4,
    ) -> float:
        """Time for one GEMM launch over ``batch`` stacked (m,k)x(k,n) products.

        Roofline: compute-bound term at size-scaled peak, memory-bound
        floor, plus launch overhead.  Tensor Cores raise the compute peak
        only (they share HBM bandwidth with everything else).  A stack
        is cublasGemmStridedBatched: one launch for the whole stack, and
        utilisation judged on its total flops (the batched kernel keeps
        the SMs fed across small products), so ``batch >= 2`` is
        strictly cheaper than ``batch`` separate launches.
        """
        flops = 2.0 * batch * m * k * n
        peak = (self.tensor_tflops if tensor_core else self.fp32_tflops) * 1e12
        compute_s = flops / (peak * self.utilization(flops))
        bytes_touched = dtype_bytes * batch * (m * k + k * n + m * n)
        memory_s = bytes_touched / (self.mem_bw_gbps * 1e9)
        return self.kernel_launch_s + max(compute_s, memory_s)

    def elementwise_seconds(self, nbytes: float) -> float:
        """Time for a bandwidth-bound elementwise kernel touching ``nbytes``."""
        return self.kernel_launch_s + nbytes / (self.mem_bw_gbps * 1e9)

    def transfer_seconds(self, nbytes: float) -> float:
        """One PCIe H2D or D2H transfer of ``nbytes``."""
        return self.pcie_latency_s + nbytes / (self.pcie_gbps * 1e9)

    def curand_seconds(self, nbytes: float, *, include_setup: bool = False) -> float:
        """On-device random generation of ``nbytes`` (cuRAND model, Fig. 7)."""
        t = self.kernel_launch_s + nbytes / (self.curand_gbps * 1e9)
        if include_setup:
            t += self.curand_setup_s
        return t


@dataclass(frozen=True)
class CPUSpec:
    """Performance envelope of the host CPUs (one node)."""

    name: str
    gemm_gflops: float  # effective dense-GEMM rate of the framework's CPU path
    simd_gbps_single: float  # single-thread elementwise/memory rate (GB/s)
    rng_gbps_single: float  # single-thread MT19937 generation rate (GB/s)
    n_cores: int
    parallel_efficiency: float  # scaling efficiency of the Section 5.1 parallel path
    cache_knee_bytes: float = 24e6  # ~L3; GEMM rate degrades past this working set
    # Client-side fixed-point encoding (float -> ring conversion during
    # "generate the encrypted data", Fig. 2).  Layout-bound and shared
    # by both systems; calibrated so the encrypt step dominates the
    # offline phase as the paper's Fig. 2 measures (62.68 s for the
    # 0.36 GB MNIST set implies a slow conversion path).
    encode_gbps: float = 0.5

    def parallel_factor(self, enabled: bool) -> float:
        """Speedup factor of the Section 5.1 CPU parallelism when on."""
        if not enabled:
            return 1.0
        return max(1.0, self.n_cores * self.parallel_efficiency)

    def gemm_efficiency(self, m: int, k: int, n: int) -> float:
        """Cache-aware degradation: the prototype GEMM loop loses locality
        once the operands overflow L3 (sqrt law — each miss stalls one of
        the two inner-loop streams).  This is what the paper's VGGFace2
        rows imply: per-batch SecureML times grow super-linearly in the
        feature count relative to the MNIST rows."""
        working = 8.0 * (m * k + k * n + m * n)
        if working <= self.cache_knee_bytes:
            return 1.0
        return (self.cache_knee_bytes / working) ** 0.5

    def gemm_seconds(self, m: int, k: int, n: int, *, batch: int = 1) -> float:
        """``batch`` stacked (m,k)x(k,n) products, run one after another."""
        rate = self.gemm_gflops * 1e9 * self.gemm_efficiency(m, k, n)
        return batch * ((2.0 * m * k * n) / rate)

    def elementwise_seconds(self, nbytes: float, *, parallel: bool = False) -> float:
        return nbytes / (self.simd_gbps_single * 1e9 * self.parallel_factor(parallel))

    def rng_seconds(self, nbytes: float, *, parallel: bool = False) -> float:
        return nbytes / (self.rng_gbps_single * 1e9 * self.parallel_factor(parallel))


def step_seconds(
    spec: CPUSpec | DeviceSpec, op: str, size: tuple, *, parallel=False, tensor_core=False
) -> float:
    """Simulated seconds of one step on a device of ``spec``: ``size`` is
    ``(batch, m, k, n)`` for a ``gemm``, ``(nbytes,)`` otherwise.  A CPU
    runs ``gemm``, and at its ``parallel`` flag ``elementwise``, ``rng``
    (MT19937) and ``encode`` (float -> ring); a GPU runs ``gemm`` (at
    ``tensor_core``), ``elementwise``, ``rng`` (warm cuRAND), ``h2d`` and
    ``d2h``."""
    cpu = isinstance(spec, CPUSpec)
    if op == "gemm":
        batch, m, k, n = size
        if cpu:
            return spec.gemm_seconds(m, k, n, batch=batch)
        return spec.gemm_seconds(m, k, n, batch=batch, tensor_core=tensor_core)
    (nbytes,) = size
    if cpu:
        if op == "elementwise":
            return spec.elementwise_seconds(nbytes, parallel=parallel)
        if op == "rng":
            return spec.rng_seconds(nbytes, parallel=parallel)
        if op == "encode":
            return nbytes / (spec.encode_gbps * 1e9)
    elif op == "elementwise":
        return spec.elementwise_seconds(nbytes)
    elif op == "rng":
        return spec.curand_seconds(nbytes)
    elif op in ("h2d", "d2h"):
        return spec.transfer_seconds(nbytes)
    raise ValueError(f"{spec.name} has no {op!r} step")


# -- Calibrated platform specs ------------------------------------------------

V100_SPEC = DeviceSpec(
    name="tesla-v100",
    fp32_tflops=14.0,
    tensor_tflops=50.0,  # effective cublasSgemmEx tensor-op rate (~3.5x FP32)
    mem_bw_gbps=900.0,
    pcie_gbps=12.0,
    pcie_latency_s=10e-6,
    kernel_launch_s=8e-6,
    util_knee_flops=1.5e8,
    curand_gbps=60.0,
    curand_setup_s=5e-3,
    memory_bytes=32 * 1024**3,
)

P100_SPEC = DeviceSpec(
    name="tesla-p100",
    fp32_tflops=9.3,
    tensor_tflops=9.3,  # no tensor cores on Pascal
    mem_bw_gbps=720.0,
    pcie_gbps=12.0,
    pcie_latency_s=10e-6,
    kernel_launch_s=8e-6,
    util_knee_flops=1.2e8,
    curand_gbps=45.0,
    curand_setup_s=5e-3,
    memory_bytes=16 * 1024**3,
)

# The effective CPU rates are calibrated to the paper's own measurements,
# not the silicon's peak: Table 1/3 imply the frameworks' CPU GEMM path
# sustains single-digit GFLOP/s (e.g. SecureML MLP/MNIST online 113 s ->
# ~24 ms per batch for ~100 MFLOP of GEMM work), i.e. a straightforward
# research-prototype loop rather than tuned BLAS.
XEON_E5_2670V3_SPEC = CPUSpec(
    name="2x-xeon-e5-2670v3",
    gemm_gflops=3.0,  # effective rate of the frameworks' CPU GEMM path
    simd_gbps_single=6.0,
    rng_gbps_single=0.6,  # MT19937, one thread (paper Section 5.1)
    n_cores=24,
    parallel_efficiency=0.45,
)


def scaled_spec(spec: DeviceSpec, factor: float) -> DeviceSpec:
    """A device uniformly ``factor``x faster (used by what-if ablations)."""
    check_positive(factor, "factor")
    return replace(
        spec,
        name=f"{spec.name}-x{factor:g}",
        fp32_tflops=spec.fp32_tflops * factor,
        tensor_tflops=spec.tensor_tflops * factor,
        mem_bw_gbps=spec.mem_bw_gbps * factor,
    )
