"""Profiler placement, pipeline-1 scheduling, timeline analysis."""

import numpy as np
import pytest
from conftest import make_ctx
from oracles import beaver_matmul_share, combine_masked, masked_difference

from repro.fixedpoint.encoding import FixedPointEncoder
from repro.fixedpoint.truncation import truncate_share
from repro.mpc.shares import reconstruct, share_secret
from repro.pipeline.profiler import StepProfiler
from repro.pipeline.scheduler import schedule_secure_gemm
from repro.pipeline.timeline import render_gantt, summarize
from repro.simgpu.clock import SimClock
from repro.simgpu.cost import V100_SPEC, XEON_E5_2670V3_SPEC
from repro.simgpu.device import SimGPU


@pytest.fixture
def profiler():
    return StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC)


class TestProfiler:
    def test_small_gemm_goes_to_cpu(self, profiler):
        assert profiler.place_gemm(8, 8, 8).placement == "cpu"

    def test_large_gemm_goes_to_gpu(self, profiler):
        assert profiler.place_gemm(2048, 2048, 2048).placement == "gpu"

    def test_decisions_memoised(self, profiler):
        d1 = profiler.place_gemm(64, 64, 64)
        d2 = profiler.place_gemm(64, 64, 64)
        assert d1 is d2

    def test_forced_modes(self):
        cpu_always = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC, mode="cpu_always")
        gpu_always = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC, mode="gpu_always")
        assert cpu_always.place_gemm(4096, 4096, 4096).placement == "cpu"
        assert gpu_always.place_gemm(2, 2, 2).placement == "gpu"

    def test_rng_placement_crossover(self, profiler):
        """Fig. 7: CPU MT19937 wins small, cuRAND wins large."""
        small = profiler.place_rng(1024 * 8)
        large = profiler.place_rng(512 * 1024 * 1024)
        assert small.placement == "cpu"
        assert large.placement == "gpu"

    def test_advantage_at_least_one(self, profiler):
        assert profiler.place_gemm(128, 128, 128).advantage >= 1.0

    def test_profile_records(self, profiler):
        profiler.record("gemm", 1.0)
        profiler.record("gemm", 1.0)
        profiler.record("comm", 2.0)
        assert profiler.profile.seconds["gemm"] == 2.0
        assert profiler.profile.fraction("gemm") == pytest.approx(0.5)

    def test_elementwise_small_on_cpu(self, profiler):
        assert profiler.place_elementwise(4096).placement == "cpu"


class TestScheduledGemm:
    def _setup(self, m=32, k=48, n=24, seed=0):
        rng = np.random.default_rng(seed)
        enc = FixedPointEncoder(13)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        ap = share_secret(enc.encode(a), rng)
        bp = share_secret(enc.encode(b), rng)
        dealer = make_ctx(seed=seed + 1)
        trip = dealer.gen_matrix_triplet((m, k), (k, n))
        e = combine_masked(
            masked_difference(ap[0], trip.u[0]), masked_difference(ap[1], trip.u[1])
        )
        f = combine_masked(
            masked_difference(bp[0], trip.v[0]), masked_difference(bp[1], trip.v[1])
        )
        return enc, a, b, ap, bp, trip, e, f

    def test_matches_reference_protocol_bitwise(self):
        """The pipelined device schedule must produce exactly the shares
        the transport-less reference produces."""
        enc, a, b, ap, bp, trip, e, f = self._setup()
        for i in (0, 1):
            clock = SimClock()
            gpu = SimGPU(clock, V100_SPEC, f"g{i}")
            res = schedule_secure_gemm(
                gpu, i, e, f, ap[i], bp[i], trip.share_for(i), pipeline=True
            )
            ref = beaver_matmul_share(i, e, f, ap[i], bp[i], trip.share_for(i))
            assert np.array_equal(res.c_share, ref)

    def test_pipeline_reduces_makespan(self):
        enc, a, b, ap, bp, trip, e, f = self._setup(m=256, k=512, n=256)
        makespans = {}
        for pipelined in (False, True):
            clock = SimClock()
            gpu = SimGPU(clock, V100_SPEC, "g")
            schedule_secure_gemm(
                gpu, 0, e, f, ap[0], bp[0], trip.share_for(0), pipeline=pipelined
            )
            makespans[pipelined] = clock.now()
        assert makespans[True] < makespans[False]

    def test_accounting_fields(self):
        enc, a, b, ap, bp, trip, e, f = self._setup()
        clock = SimClock()
        gpu = SimGPU(clock, V100_SPEC, "g")
        res = schedule_secure_gemm(gpu, 0, e, f, ap[0], bp[0], trip.share_for(0))
        assert res.transfer_seconds > 0
        assert res.kernel_seconds > 0
        assert res.done.finish >= res.gpu_done.finish

    def test_end_to_end_decode(self):
        enc, a, b, ap, bp, trip, e, f = self._setup()
        shares = []
        for i in (0, 1):
            clock = SimClock()
            gpu = SimGPU(clock, V100_SPEC, f"g{i}")
            res = schedule_secure_gemm(gpu, i, e, f, ap[i], bp[i], trip.share_for(i))
            shares.append(truncate_share(res.c_share, 13, i))
        out = enc.decode(reconstruct(*shares))
        np.testing.assert_allclose(out, a @ b, atol=48 * 2**-12 + 2**-10)


class TestTimeline:
    def test_summarize_busy_and_overlap(self):
        clock = SimClock()
        clock.add_resource("x")
        clock.add_resource("y")
        clock.run("x", 2.0)
        clock.run("y", 2.0)
        s = summarize(clock)
        assert s.makespan == 2.0
        assert s.busy_seconds == {"x": 2.0, "y": 2.0}
        assert s.overlap_seconds() == 2.0
        assert s.utilization("x") == 1.0

    def test_summarize_window(self):
        clock = SimClock()
        clock.add_resource("x")
        clock.run("x", 4.0)
        s = summarize(clock, since=1.0, until=3.0)
        assert s.busy_seconds["x"] == 2.0

    def test_gantt_renders(self):
        clock = SimClock()
        clock.add_resource("gpu")
        clock.run("gpu", 1.0, label="k")
        text = render_gantt(clock)
        assert "gpu" in text
        assert "#" in text

    def test_gantt_empty(self):
        assert "empty" in render_gantt(SimClock())
