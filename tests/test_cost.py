"""The analytical cost model."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.channel import INFINIBAND_100G
from repro.simgpu.cost import (
    V100_FP32_SPEC,
    V100_SPEC,
    P100_SPEC,
    XEON_E5_2670V3_SPEC,
    XEON_SERIAL_SPEC,
)
from repro.util.errors import ConfigError

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
        plain = V100_FP32_SPEC.gemm_seconds(4096, 4096, 4096)
        tc = V100_SPEC.gemm_seconds(4096, 4096, 4096)
        assert tc < plain

    def test_tensor_core_saving_negligible_when_small(self):
        """Absolute Tensor-Core saving on a tiny GEMM is microseconds;
        on a large GEMM it is orders of magnitude more (Fig. 15's
        'large GEMMs benefit most')."""
        small_saving = V100_FP32_SPEC.gemm_seconds(8, 8, 8) - V100_SPEC.gemm_seconds(8, 8, 8)
        big_saving = V100_FP32_SPEC.gemm_seconds(4096, 4096, 4096) - V100_SPEC.gemm_seconds(
            4096, 4096, 4096
        )
        assert small_saving < 2e-5
        assert big_saving > 100 * small_saving

    @pytest.mark.parametrize("spec", [V100_SPEC, V100_FP32_SPEC, P100_SPEC])
    def test_gemm_runs_at_the_tensor_peak(self, spec):
        """The roofline at ``tensor_tflops``: an FP32-only spec is the
        FP32 roofline (what a GPU without Tensor Cores runs at)."""
        m, k, n = 1024, 512, 256
        flops = 2.0 * m * k * n
        compute = flops / (spec.tensor_tflops * 1e12 * spec.utilization(flops))
        memory = 4 * (m * k + k * n + m * n) / (spec.mem_bw_gbps * 1e9)
        assert spec.gemm_seconds(m, k, n) == spec.kernel_launch_s + max(compute, memory)

    def test_fp32_spec_is_the_v100_less_its_tensor_cores(self):
        assert V100_FP32_SPEC == replace(
            V100_SPEC, name=V100_FP32_SPEC.name, tensor_tflops=V100_SPEC.fp32_tflops
        )

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
        assert P100_SPEC.tensor_tflops == P100_SPEC.fp32_tflops
        with_fp32_units = replace(P100_SPEC, tensor_tflops=P100_SPEC.fp32_tflops)
        assert P100_SPEC.gemm_seconds(4096, 4096, 4096) == with_fp32_units.gemm_seconds(
            4096, 4096, 4096
        )


class TestCPUModel:
    def test_parallel_factor(self):
        assert XEON_E5_2670V3_SPEC.parallel_factor == pytest.approx(24 * 0.45)
        assert XEON_SERIAL_SPEC.parallel_factor == 1.0  # exactly: one core is the serial path

    def test_serial_spec_is_the_xeon_on_one_core(self):
        assert XEON_SERIAL_SPEC == replace(
            XEON_E5_2670V3_SPEC, name=XEON_SERIAL_SPEC.name, n_cores=1
        )
        serial = XEON_SERIAL_SPEC
        assert serial.elementwise_seconds(1e6) == 1e6 / (serial.simd_gbps_single * 1e9)
        assert serial.rng_seconds(1e6) == 1e6 / (serial.rng_gbps_single * 1e9)

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
        assert XEON_E5_2670V3_SPEC.rng_seconds(1e9) < XEON_SERIAL_SPEC.rng_seconds(1e9)

    def test_cpu_beats_gpu_on_tiny_elementwise(self):
        """The adaptive-placement premise: no PCIe on the CPU side."""
        cpu = XEON_E5_2670V3_SPEC.elementwise_seconds(1024)
        gpu = V100_SPEC.elementwise_seconds(1024) + 2 * V100_SPEC.transfer_seconds(1024)
        assert cpu < gpu


class TestSpecValidation:
    """A spec is how an ablation is set, so a bad value is refused when
    the spec is built, naming the spec and the field."""

    @pytest.mark.parametrize(
        "spec, field, value",
        [
            # a rate, bandwidth or capacity <= 0
            (XEON_E5_2670V3_SPEC, "simd_gbps_single", 0.0),
            (XEON_E5_2670V3_SPEC, "gemm_gflops", -3.0),
            (XEON_E5_2670V3_SPEC, "rng_gbps_single", 0.0),
            (XEON_E5_2670V3_SPEC, "cache_knee_bytes", 0.0),
            (XEON_E5_2670V3_SPEC, "encode_gbps", -0.5),
            (V100_SPEC, "pcie_gbps", -12.0),
            (V100_SPEC, "fp32_tflops", 0.0),
            (V100_SPEC, "mem_bw_gbps", 0.0),
            (V100_SPEC, "curand_gbps", -60.0),
            (V100_SPEC, "memory_bytes", 0),
            (INFINIBAND_100G, "bandwidth_gbps", 0.0),
            (V100_SPEC, "pcie_gbps", float("nan")),
            # a latency or setup cost < 0
            (V100_SPEC, "pcie_latency_s", -1e-6),
            (V100_SPEC, "kernel_launch_s", -8e-6),
            (V100_SPEC, "curand_setup_s", -5e-3),
            (V100_SPEC, "util_knee_flops", -1.0),
            (INFINIBAND_100G, "latency_s", -1.5e-6),
            # n_cores < 1, parallel_efficiency outside (0, 1]
            (XEON_E5_2670V3_SPEC, "n_cores", 0),
            (XEON_E5_2670V3_SPEC, "parallel_efficiency", 0.0),
            (XEON_E5_2670V3_SPEC, "parallel_efficiency", 1.01),
            # tensor cores slower than the FP32 units
            (V100_SPEC, "tensor_tflops", 13.9),
        ],
    )
    def test_bad_value_names_spec_and_field(self, spec, field, value):
        with pytest.raises(ConfigError, match=rf"'{spec.name}'.*\b{field}\b"):
            replace(spec, **{field: value})

    @pytest.mark.parametrize(
        "spec, field, value",
        [
            (V100_SPEC, "pcie_latency_s", 0.0),
            (INFINIBAND_100G, "latency_s", 0.0),
            (XEON_E5_2670V3_SPEC, "n_cores", 1),
            (XEON_E5_2670V3_SPEC, "parallel_efficiency", 1.0),
            (V100_SPEC, "tensor_tflops", V100_SPEC.fp32_tflops),
        ],
    )
    def test_edge_values_are_accepted(self, spec, field, value):
        assert getattr(replace(spec, **{field: value}), field) == value
