"""The analytical cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simgpu.cost import (
    CPUSpec,
    V100_SPEC,
    P100_SPEC,
    XEON_E5_2670V3_SPEC,
)

dims = st.integers(1, 4096)


class TestGPUModel:
    @given(dims, dims, dims)
    def test_gemm_time_positive(self, m, k, n):
        assert V100_SPEC.gemm_seconds(m, k, n) > 0

    def test_gemm_monotone_in_size(self):
        t1 = V100_SPEC.gemm_seconds(128, 128, 128)
        t2 = V100_SPEC.gemm_seconds(1024, 1024, 1024)
        t3 = V100_SPEC.gemm_seconds(8192, 8192, 8192)
        assert t1 < t2 < t3

    def test_tensor_core_faster_on_large_gemm(self):
        plain = V100_SPEC.gemm_seconds(4096, 4096, 4096, tensor_core=False)
        tc = V100_SPEC.gemm_seconds(4096, 4096, 4096, tensor_core=True)
        assert tc < plain

    def test_tensor_core_saving_negligible_when_small(self):
        """Absolute Tensor-Core saving on a tiny GEMM is microseconds;
        on a large GEMM it is orders of magnitude more (Fig. 15's
        'large GEMMs benefit most')."""
        small_saving = V100_SPEC.gemm_seconds(8, 8, 8) - V100_SPEC.gemm_seconds(
            8, 8, 8, tensor_core=True
        )
        big_saving = V100_SPEC.gemm_seconds(4096, 4096, 4096) - V100_SPEC.gemm_seconds(
            4096, 4096, 4096, tensor_core=True
        )
        assert small_saving < 2e-5
        assert big_saving > 100 * small_saving

    def test_utilization_bounds(self):
        assert 0 < V100_SPEC.utilization(1e3) < 0.01
        assert V100_SPEC.utilization(1e13) > 0.98
        assert V100_SPEC.utilization(0) == 1.0

    def test_small_gemm_underutilises(self):
        """The Fig. 17 / Table 2 effect: small workloads waste the GPU."""
        small_eff = (2 * 64**3) / V100_SPEC.gemm_seconds(64, 64, 64)
        big_eff = (2 * 4096**3) / V100_SPEC.gemm_seconds(4096, 4096, 4096)
        assert big_eff > 20 * small_eff

    def test_transfer_includes_latency(self):
        assert V100_SPEC.transfer_seconds(0) == V100_SPEC.pcie_latency_s

    def test_curand_setup_once_semantics(self):
        with_setup = V100_SPEC.curand_seconds(1024, include_setup=True)
        without = V100_SPEC.curand_seconds(1024)
        assert with_setup - without == pytest.approx(V100_SPEC.curand_setup_s)

    def test_p100_has_no_tensor_advantage(self):
        plain = P100_SPEC.gemm_seconds(4096, 4096, 4096, tensor_core=False)
        tc = P100_SPEC.gemm_seconds(4096, 4096, 4096, tensor_core=True)
        assert tc == plain


class TestCPUModel:
    def test_parallel_factor(self):
        spec = XEON_E5_2670V3_SPEC
        assert spec.parallel_factor(False) == 1.0
        assert spec.parallel_factor(True) == pytest.approx(24 * 0.45)

    def test_cache_degradation_kicks_in_past_l3(self):
        spec = XEON_E5_2670V3_SPEC
        assert spec.gemm_efficiency(128, 128, 128) == 1.0
        assert spec.gemm_efficiency(128, 80_000, 128) < 0.5

    def test_gemm_seconds_superlinear_past_cache(self):
        spec = XEON_E5_2670V3_SPEC
        base = spec.gemm_seconds(128, 1000, 128)
        big = spec.gemm_seconds(128, 100_000, 128)
        assert big > 100 * base  # x100 flops, plus degradation

    def test_rng_parallel_speedup(self):
        spec = XEON_E5_2670V3_SPEC
        assert spec.rng_seconds(1e9, parallel=True) < spec.rng_seconds(1e9, parallel=False)

    def test_cpu_beats_gpu_on_tiny_elementwise(self):
        """The adaptive-placement premise: no PCIe on the CPU side."""
        cpu = XEON_E5_2670V3_SPEC.elementwise_seconds(1024, parallel=True)
        gpu = V100_SPEC.elementwise_seconds(1024) + 2 * V100_SPEC.transfer_seconds(1024)
        assert cpu < gpu
