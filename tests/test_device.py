"""Simulated devices: memory discipline, kernels, timing integration."""

import numpy as np
import pytest

from repro.fixedpoint.ring import ring_matmul
from repro.simgpu.clock import SimClock
from repro.simgpu.cost import V100_SPEC, XEON_E5_2670V3_SPEC
from repro.simgpu.device import SimCPU, SimGPU
from repro.simgpu.cost import DeviceSpec
from dataclasses import replace
from repro.util.errors import DeviceError


@pytest.fixture
def gpu():
    clock = SimClock()
    return SimGPU(clock, V100_SPEC, "g")


class TestMemory:
    def test_h2d_d2h_roundtrip(self, gpu, rng):
        data = rng.integers(0, 2**64, size=(8, 8), dtype=np.uint64)
        buf, _ = gpu.h2d(data)
        back, _ = gpu.d2h(buf)
        assert np.array_equal(back, data)

    def test_use_after_free(self, gpu, rng):
        buf, _ = gpu.h2d(rng.integers(0, 10, size=(4, 4), dtype=np.uint64))
        gpu.free(buf)
        with pytest.raises(DeviceError):
            gpu.d2h(buf)

    def test_double_free(self, gpu, rng):
        buf, _ = gpu.h2d(rng.integers(0, 10, size=(4, 4), dtype=np.uint64))
        gpu.free(buf)
        with pytest.raises(DeviceError):
            gpu.free(buf)

    def test_out_of_memory(self):
        clock = SimClock()
        tiny = replace(V100_SPEC, memory_bytes=1024)
        gpu = SimGPU(clock, tiny, "tiny")
        with pytest.raises(DeviceError):
            gpu.h2d(np.zeros((64, 64), dtype=np.uint64))

    def test_peak_accounting(self, gpu, rng):
        a, _ = gpu.h2d(np.zeros((16, 16), dtype=np.uint64))
        b, _ = gpu.h2d(np.zeros((16, 16), dtype=np.uint64))
        gpu.free(a)
        assert gpu.pool.peak_bytes == 2 * 16 * 16 * 8
        assert gpu.pool.allocated_bytes == 16 * 16 * 8
        gpu.free(b)


class TestKernels:
    def test_gemm_ring_exact(self, gpu, rng):
        a = rng.integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(7, 3), dtype=np.uint64)
        a_buf, _ = gpu.h2d(a)
        b_buf, _ = gpu.h2d(b)
        out, _ = gpu.gemm_ring(a_buf, b_buf)
        assert np.array_equal(out.require_live(), ring_matmul(a, b))

    def test_elementwise_charges_time(self, gpu):
        task = gpu.run_step("elementwise", (3 * 64 * 64 * 8,))
        assert task.duration == V100_SPEC.elementwise_seconds(3 * 64 * 64 * 8) > 0

    def test_stream_serialisation(self, gpu):
        t1 = gpu.run_step("elementwise", (32 * 32 * 8,))
        t2 = gpu.run_step("elementwise", (32 * 32 * 8,))
        assert t2.start >= t1.finish  # same stream

    def test_streams_are_independent(self, rng):
        clock = SimClock()
        gpu = SimGPU(clock, V100_SPEC, "g2", n_streams=2)
        a, _ = gpu.h2d(rng.integers(0, 2**32, size=(64, 64), dtype=np.uint64))
        _, t1 = gpu.gemm_ring(a, a, stream=0)
        _, t2 = gpu.gemm_ring(a, a, stream=1)
        assert t2.start < t1.finish  # overlapping

    def test_invalid_stream(self, gpu):
        with pytest.raises(DeviceError):
            gpu.stream(5)

    def test_counters(self, gpu):
        gpu.run_step("h2d", (128,))
        gpu.run_step("gemm", (2, 4, 4, 4))
        gpu.run_step("d2h", (64,))
        assert gpu.gemm_count == 1
        assert gpu.gemm_flops == 2 * 2 * 4 * 4 * 4
        assert (gpu.h2d_bytes, gpu.d2h_bytes) == (128, 64)


class TestSimCPU:
    @staticmethod
    def _both_flags(op):
        clock = SimClock()
        fast = SimCPU(clock, XEON_E5_2670V3_SPEC, "f", parallel_enabled=True)
        slow = SimCPU(clock, XEON_E5_2670V3_SPEC, "s", parallel_enabled=False)
        return fast.run_step(op, (8_000_000,)), slow.run_step(op, (8_000_000,))

    def test_parallel_flag_speeds_elementwise(self):
        tf, ts = self._both_flags("elementwise")
        assert tf.duration < ts.duration

    def test_parallel_flag_speeds_rng(self):
        tf, ts = self._both_flags("rng")
        assert tf.duration < ts.duration
