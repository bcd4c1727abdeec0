"""Profiler placement, pipeline 1 as a plan, timeline analysis."""

import numpy as np
import pytest
from conftest import make_ctx
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import beaver_matmul_share

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.ops import secure_elementwise_mul, secure_matmul
from repro.core.tensor import SharedTensor
from repro.fixedpoint.truncation import truncate_share
from repro.mpc.shares import reconstruct
from repro.mpc.triplets import TripletShare
from repro.pipeline.profiler import PLANS, StepProfiler, plan_steps
from repro.pipeline.timeline import render_gantt, summarize
from repro.protocols.beaver2pc import _resident
from repro.simgpu.clock import SimClock, Task
from repro.simgpu.cost import V100_SPEC, XEON_E5_2670V3_SPEC
from repro.simgpu.device import SimGPU


@pytest.fixture
def profiler():
    return StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC)


class TestProfiler:
    def test_small_gemm_goes_to_cpu(self, profiler):
        assert profiler.place_gemm(1, 8, 8, 8).placement == "cpu"

    def test_large_gemm_goes_to_gpu(self, profiler):
        assert profiler.place_gemm(1, 2048, 2048, 2048).placement == "gpu"

    def test_decisions_memoised(self, profiler):
        d1 = profiler.place_gemm(1, 64, 64, 64)
        d2 = profiler.place_gemm(1, 64, 64, 64)
        assert d1 is d2

    def test_forced_modes(self):
        cpu_always = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC, mode="cpu_always")
        gpu_always = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC, mode="gpu_always")
        assert cpu_always.place_gemm(1, 4096, 4096, 4096).placement == "cpu"
        assert gpu_always.place_gemm(1, 2, 2, 2).placement == "gpu"

    @pytest.mark.parametrize("mode", ["cpu_always", "gpu_always"])
    def test_forced_modes_force_every_plan(self, mode):
        forced = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC, mode=mode)
        decisions = [forced.decide("rng", (8,)), forced.decide("rng", (2**30,))]
        for size in (8, 2**30):
            decisions += [forced.decide(f"{p}.mul", (size,)) for p in ("beaver2pc", "rep3")]
        for plan in ("dealer", "rep3", "beaver2pc"):
            decisions.append(forced.place_gemm(1, 2, 2, 2, plan=plan))
            decisions.append(forced.place_gemm(8, 512, 512, 512, plan=plan))
        decisions.append(forced.place_gemm(1, 2, 2, 2, plan="beaver2pc", resident=("D", "E", "F", "Z")))
        assert {d.placement for d in decisions} == {mode.removesuffix("_always")}

    def test_rng_placement_crossover(self, profiler):
        """Fig. 7: CPU MT19937 wins small, cuRAND wins large."""
        small = profiler.decide("rng", (1024 * 8,))
        large = profiler.decide("rng", (512 * 1024 * 1024,))
        assert small.placement == "cpu"
        assert large.placement == "gpu"

    def test_client_rng_is_priced_at_the_clients_parallel_flag(self):
        """The one RNG the profiler places is the client's, whose CPU runs
        at ``client_parallel``: a 64 KiB draw costs ~10 us there against
        ~25 us on cuRAND, even when the servers' ``cpu_parallel`` is off."""
        ctx = SecureContext(FrameworkConfig(cpu_parallel=False))
        assert ctx.profiler.decide("rng", (65536,)).placement == "cpu"

    def test_elementwise_small_on_cpu(self, profiler):
        assert profiler.decide("beaver2pc.mul", (4096,)).placement == "cpu"


def _busy(tasks) -> float:
    """Seconds the tasks occupy their resources."""
    return sum(t.duration for t in tasks)


def _pays_its_price(ctx, placed, party, device, plan, shape, label):
    """The profiler placed ``plan`` on ``device``, and of ``placed``,
    ``party``'s tasks of that device's steps sum to the decision's price."""
    decision = ctx.profiler.decide(plan, shape)
    steps = plan_steps(plan, shape)[device == "gpu"]
    names = {f"{label}:{s.name}" if s.name else label for s in steps}
    paid = [t for t in placed if t.resource.split(".")[0] == party.name and t.label in names]
    assert decision.placement == device and len(paid) == len(steps)
    price = decision.gpu_estimate_s if device == "gpu" else decision.cpu_estimate_s
    assert _busy(paid) == pytest.approx(price, rel=1e-12)


def _plan_shape(plan):
    return (2, 8, 16, 4) if plan in ("beaver2pc", "rep3", "dealer") else (4096,)


class TestRunPlan:
    """``run_plan`` places exactly the steps the profiler prices, on the
    device it picks, each priced by the party's own device."""

    @pytest.mark.parametrize("device", ["cpu", "gpu"])
    @pytest.mark.parametrize("plan", PLANS)
    def test_placed_durations_sum_to_the_profilers_price(self, plan, device):
        # the servers' and the client's parallel flags differ, so a step
        # priced at the wrong party's flag shows
        ctx = make_ctx(cpu_parallel=False, placement_mode=f"{device}_always")
        client = plan in ("dealer", "rng", "encode")
        cpu, gpu = (
            (ctx.client_cpu, ctx.client_gpu) if client else (ctx.server_cpu[0], ctx.server_gpu[0])
        )
        shape = _plan_shape(plan)
        cpu_steps, gpu_steps = plan_steps(plan, shape)
        on = device if gpu_steps else "cpu"  # a CPU-only plan never reaches the GPU
        tasks = ctx.profiler.run_plan(cpu, gpu, plan, shape, deps=(), label="t")
        steps = gpu_steps if on == "gpu" else cpu_steps
        assert len(tasks) == len(steps)
        assert {t.resource.split(".")[0] for t in tasks} == {(gpu if on == "gpu" else cpu).name}
        assert sum(t.duration for t in tasks) == pytest.approx(
            ctx.profiler.seconds(on, steps, parallel=cpu.parallel_enabled), rel=1e-12
        )

    def test_a_server_and_a_client_draw_are_priced_at_their_own_parallel_flags(self):
        ctx = make_ctx(cpu_parallel=False, client_parallel=True)
        spec, nbytes = ctx.config.cpu_spec, 4096
        run_plan = ctx.profiler.run_plan
        (server,) = run_plan(ctx.server_cpu[0], None, "prg", (nbytes,), deps=(), label="s")
        (client,) = run_plan(ctx.client_cpu, None, "rng", (nbytes,), deps=(), label="c")
        assert server.duration == pytest.approx(spec.rng_seconds(2 * nbytes, parallel=False))
        assert client.duration == pytest.approx(spec.rng_seconds(nbytes, parallel=True))
        assert ctx.profiler.decide("rng", (nbytes,)).cpu_estimate_s == client.duration

    @pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
    @pytest.mark.parametrize("device", ["cpu", "gpu"])
    def test_a_hadamard_product_charges_the_plan_the_profiler_priced(self, backend, device):
        ctx = make_ctx(backend=backend, placement_mode=f"{device}_always", trace=True)
        rng = np.random.default_rng(0)
        x, y = (SharedTensor.from_plain(ctx, rng.normal(size=(16, 32)), label=n) for n in "xy")
        start = len(ctx.online_clock.trace)
        secure_elementwise_mul(x, y, label="h")
        party = ctx.server_gpu[0] if device == "gpu" else ctx.server_cpu[0]
        placed = ctx.online_clock.trace[start:]
        _pays_its_price(ctx, placed, party, device, f"{backend}.mul", (x.nbytes,), "h")

    @pytest.mark.parametrize(
        "plan, device",
        [("dealer", "cpu"), ("dealer", "gpu"), ("rep3", "cpu"), ("rep3", "gpu"),
         ("beaver2pc", "cpu")],
    )
    def test_a_product_charges_the_plan_the_profiler_priced(self, plan, device):
        """The client's ``Z = U x V``, rep3's fused cross-term and a
        beaver2pc product on the CPU (on the GPU each server runs its
        own ``D``: ``TestPlanPrice``)."""
        backend = "rep3" if plan == "rep3" else "beaver2pc"
        ctx = make_ctx(backend=backend, placement_mode=f"{device}_always", trace=True)
        m, k, n = 16, 32, 8
        if plan == "dealer":
            clock, label = ctx.offline_clock, "offline"
            party = ctx.client_gpu if device == "gpu" else ctx.client_cpu
            start = len(clock.trace)
            ctx.gen_matrix_triplet((m, k), (k, n))
        else:
            clock, label = ctx.online_clock, "p"
            party = ctx.server_gpu[0] if device == "gpu" else ctx.server_cpu[0]
            rng = np.random.default_rng(1)
            x = SharedTensor.from_plain(ctx, rng.normal(size=(m, k)), label="x")
            y = SharedTensor.from_plain(ctx, rng.normal(size=(k, n)), label="y")
            start = len(clock.trace)
            secure_matmul(x, y, label=label)
        _pays_its_price(ctx, clock.trace[start:], party, device, plan, (1, m, k, n), label)


def _gpu_product(m=32, k=48, n=24, seed=0, **config):
    """``(ctx, x, y, out)``: ``x @ y`` unrescaled on both server GPUs."""
    ctx = make_ctx(seed=seed, placement_mode="gpu_always", **config)
    rng = np.random.default_rng(seed)
    x = SharedTensor.from_plain(ctx, rng.normal(size=(m, k)), label="x")
    y = SharedTensor.from_plain(ctx, rng.normal(size=(k, n)), label="y")
    return ctx, x, y, ctx.backend.matmul(ctx, x, y, label="p")


class TestScheduledGemm:
    def test_matches_reference_protocol_bitwise(self):
        """The product placed on the server GPUs must produce exactly the
        shares the transport-less reference produces."""
        ctx, x, y, out = _gpu_product()
        trip = ctx._matrix_triplets["p"]
        e = reconstruct(*x.shares) - reconstruct(trip.u.share0, trip.u.share1)
        f = reconstruct(*y.shares) - reconstruct(trip.v.share0, trip.v.share1)
        for i in (0, 1):
            share = TripletShare(trip.u[i], trip.v[i], trip.z[i], party_id=i)
            ref = beaver_matmul_share(i, e, f, x.shares[i], y.shares[i], share)
            assert np.array_equal(out.shares[i], ref)

    def test_pipeline_reduces_makespan(self):
        makespans = {}
        for pipelined in (False, True):
            ctx, *_ = _gpu_product(256, 512, 256, pipeline1=pipelined)
            makespans[pipelined] = ctx.online_clock.now()
        assert makespans[True] < makespans[False]

    def test_accounting_fields(self):
        ctx, _x, _y, out = _gpu_product()
        for share, done, gpu in zip(out.shares, out.tasks, ctx.server_gpu):
            assert share.shape == (32, 24)
            assert (done.resource, done.label) == (gpu.d2h_engine, "p:d2h:C")
        assert max(t.finish for t in out.tasks) == ctx.online_clock.now()

    def test_end_to_end_decode(self):
        ctx, x, y, out = _gpu_product()
        shares = [truncate_share(share, 13, i) for i, share in enumerate(out.shares)]
        np.testing.assert_allclose(
            ctx.encoder.decode(reconstruct(*shares)), x.decode() @ y.decode(),
            atol=48 * 2**-12 + 2**-10,
        )


class TestPlanPrice:
    """A call site asks for the plan it runs: the GPU price is the steps
    ``run_plan`` places for server 1 (server 0's ``D`` copies ``A_0``),
    and a decision is one (plan, shape, resident slots)."""

    def test_dealer_and_server_products_of_one_fused_shape_are_separate_decisions(self):
        """The dealer's ``Z = U V`` for a (128,64)x(64,16) triplet and a
        server product (128,32)x(32,16), whose CPU GEMM is that same
        (128, 64, 16), once shared a memo entry: whichever asked first
        decided for the other."""
        for server_first in (False, True):
            profiler = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC)
            if server_first:
                server = profiler.place_gemm(1, 128, 32, 16, plan="beaver2pc")
            dealer = profiler.place_gemm(1, 128, 64, 16)
            if not server_first:
                server = profiler.place_gemm(1, 128, 32, 16, plan="beaver2pc")
            assert (dealer.placement, server.placement) == ("gpu", "cpu")
            assert len(profiler.decisions) == 2

    @staticmethod
    def _placed(profiler, shape, resident=(), party=1) -> float:
        """Busy seconds of the ``beaver2pc`` plan ``run_plan`` places."""
        gpu = SimGPU(SimClock(), V100_SPEC, "g")
        run = profiler.run_plan(
            None, gpu, "beaver2pc", shape, deps=(), label="p", resident=resident, party=party
        )
        return _busy(run)

    def test_cold_price_is_what_the_scheduler_places_but_the_servers_own_shares(self):
        """The servers' own shares are priced unless their rows are held
        (resident ``A``, ``B``)."""
        m, k, n = 32, 48, 24
        profiler = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC)
        placed = self._placed(profiler, (1, m, k, n))
        own = sum(V100_SPEC.transfer_seconds(8 * size) for size in (m * k, k * n))
        price = profiler.place_gemm(1, m, k, n, plan="beaver2pc", resident=("A", "B"))
        assert price.resident == ("A", "B")
        assert price.gpu_estimate_s == pytest.approx(placed - own)
        every = profiler.place_gemm(1, m, k, n, plan="beaver2pc")
        assert every.gpu_estimate_s == pytest.approx(placed)
        # server 0's D copies A_0: two operand-sized passes, not three
        copy = self._placed(profiler, (1, m, k, n), party=0)
        pass_over = V100_SPEC.elementwise_seconds
        assert placed - copy == pytest.approx(pass_over(3 * 8 * m * k) - pass_over(2 * 8 * m * k))

    def test_warm_price_leaves_out_what_the_device_table_holds(self):
        m, k, n = 32, 48, 24
        table, keep = {}, {"E": ("open", 1), "F": ("open", 2), "Z": ("Z", 3), "D": ("lead", 1)}
        assert _resident(table, keep) == ()
        table = dict.fromkeys(keep.values())  # what a cold product keeps
        assert _resident(table, keep) == ("D", "E", "F", "Z")
        profiler = StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC)
        warm = profiler.place_gemm(1, m, k, n, plan="beaver2pc", resident=("D", "E", "F", "Z"))
        # A_i has no reader where D is; B_i is uploaded again and priced
        placed = self._placed(profiler, (1, m, k, n), ("D", "E", "F", "Z"))
        assert warm.gpu_estimate_s == pytest.approx(placed)
        cold = profiler.place_gemm(1, m, k, n, plan="beaver2pc")
        assert cold is not warm and cold.gpu_estimate_s > warm.gpu_estimate_s
        assert cold.cpu_estimate_s == warm.cpu_estimate_s

    def test_a_value_both_sides_share_is_priced_as_one_upload(self):
        keep = {"E": ("open", 1), "F": ("open", 1)}
        assert _resident({}, keep) == ("F",)

    def test_a_kept_share_row_is_resident(self):
        """A server's own share whose row the table holds is not uploaded,
        nor priced; ``p * p`` reads one share row on both sides."""
        table = {("share", 1): None}
        assert _resident(table, {"A": ("share", 1), "B": ("share", 2)}) == ("A",)
        assert _resident({}, {"A": ("share", 2), "B": ("share", 2)}) == ("B",)
        steps = plan_steps("beaver2pc", (1, 8, 8, 8), ("A", "B"))[1]
        assert sum(s.op == "h2d" for s in steps) == 3  # E, F, Z

    def test_cold_and_warm_calls_of_one_product_are_separate_decisions(self):
        """A static right operand: the first step uploads every slot, the
        next finds ``F``, ``Z`` and the weight's share ``B_i`` in the
        device table."""
        ctx = make_ctx(seed=3)
        rng = np.random.default_rng(3)
        w = SharedTensor.from_plain(ctx, rng.normal(size=(64, 32)), label="w").mark_static()
        for _ in range(2):
            ctx.begin_batch()
            x = SharedTensor.from_plain(ctx, rng.normal(size=(128, 64)), label="x")
            secure_matmul(x, w, label="p")
        asked = {
            resident: d for (plan, shape, resident), d in ctx.profiler.decisions.items()
            if (plan, shape) == ("beaver2pc", (1, 128, 64, 32))
        }
        assert sorted(asked) == [(), ("B", "F", "Z")]
        assert asked[()].gpu_estimate_s > asked["B", "F", "Z"].gpu_estimate_s


def _product_operands(ctx, batch, m, k, n, trans=(False, False), seed=0):
    """``x`` (m, k) and ``y`` (k, n), or ``batch``-deep stacks of them
    (``batch`` 0: matrices); each is the transpose of a shared value
    where its ``trans`` flag says."""
    rng = np.random.default_rng(seed)
    stack = (batch,) if batch else ()
    operands = []
    for name, (rows, cols), flipped in zip("xy", ((m, k), (k, n)), trans):
        shape = (*stack, cols, rows) if flipped else (*stack, rows, cols)
        value = SharedTensor.from_plain(ctx, rng.normal(size=shape), label=name)
        operands.append(value.T if flipped else value)
    return operands


class TestOneLaunchPerProduct:
    """``D @ F`` and ``E @ B_i`` are one batched launch, and a fixed x
    fixed ``beaver2pc`` product rescales inside its last pass."""

    @pytest.mark.parametrize("batch", [0, 4])
    def test_a_gpu_product_adds_one_launch_per_server_and_the_same_flops(self, batch):
        ctx = make_ctx(seed=0, placement_mode="gpu_always")
        x, y = _product_operands(ctx, batch, 32, 48, 24)
        before = [(g.gemm_count, g.gemm_flops) for g in ctx.server_gpu]
        secure_matmul(x, y, label="p")
        flops = 2 * (2.0 * max(batch, 1) * 32 * 48 * 24)  # D @ F and E @ B_i
        added = [(g.gemm_count - c, g.gemm_flops - f) for g, (c, f) in zip(ctx.server_gpu, before)]
        assert added == [(1, flops), (1, flops)]

    @pytest.mark.parametrize("device", ["cpu", "gpu"])
    def test_no_rescale_pass_follows_a_beaver2pc_product(self, device):
        ctx = make_ctx(seed=0, placement_mode=f"{device}_always", trace=True)
        x, y = _product_operands(ctx, 0, 32, 48, 24)
        secure_matmul(x, y, label="p")
        secure_elementwise_mul(x, x, label="h")
        labels = [t.label for t in ctx.online_clock.trace]
        assert any(lab.endswith(":cpu_gemm") for lab in labels) == (device == "cpu")
        assert [lab for lab in labels if "trunc" in lab] == []

    def test_the_gpu_plan_prices_one_batched_gemm(self):
        steps = plan_steps("beaver2pc", (2, 64, 96, 32))[1]
        assert [s.size for s in steps if s.op == "gemm"] == [(4, 64, 96, 32)]

    def test_rep3_still_places_its_truncation_and_lift(self):
        ctx = make_ctx(backend="rep3", seed=0, trace=True)
        x, y = _product_operands(ctx, 0, 32, 48, 24)
        secure_matmul(x, y, label="p")
        secure_elementwise_mul(x, x, label="h")
        labels = {t.label for t in ctx.online_clock.trace}
        assert {"p:trunc", "p:trunc:lift", "h:trunc", "h:trunc:lift"} <= labels


class TestPlanFinishIsWhatAProductFinishes:
    """On an idle clock a GPU product's rescaled result is ready when
    ``plan_finish`` says, as read off both servers' clocks at the
    decision: the plan is Fig. 5's graph (``D`` under ``F``'s transfer,
    the GEMM under ``Z_i``'s), cold and warm (the static ``y``'s ``F``,
    ``Z`` and ``B_i`` resident), with pipeline 1 or without it (every
    kernel also waits on every upload).  Each upload waits on what it
    reads, so the servers' own shares cross PCIe while ``E``/``F`` are
    exchanged, and the plan places them."""

    @pytest.mark.parametrize("pipeline1", [False, True])
    @pytest.mark.parametrize(
        "batch, m, k, n, trans",
        [
            (0, 128, 128, 128, (False, False)),
            (0, 128, 128, 128, (True, False)),
            (0, 192, 128, 160, (False, True)),
            (4, 64, 96, 32, (False, True)),
            (2, 128, 128, 128, (True, True)),
        ],
    )
    def test_cold_and_warm(self, pipeline1, batch, m, k, n, trans):
        ctx = make_ctx(seed=0, pipeline1=pipeline1)
        _, y = _product_operands(ctx, batch, m, k, n, trans, seed=1)
        y.mark_static()
        for step, resident in enumerate(((), ("B", "F", "Z"))):
            ctx.begin_batch()
            ctx.online_clock.advance_all()  # each step on an idle clock
            x, _ = _product_operands(ctx, batch, m, k, n, trans, seed=step)
            out = secure_matmul(x, y, label="p")
            decision = ctx.profiler.decisions["beaver2pc", (max(batch, 1), m, k, n), resident]
            assert decision.placement == "gpu"
            finish = max(t.finish for t in out.tasks)
            assert finish == decision.gpu_finish_s  # plan_finish's prediction


class TestEachStepWaitsOnWhatItReads:
    """Fig. 5 on data dependencies: under the double pipeline a product's
    subtraction ``E_i = X_i - U_i`` and upload ``h2d:A`` wait on the
    activation only, and ``h2d:E`` on ``E``'s opening only; without it
    every step keeps the join of both operands (and of the opening)."""

    @pytest.mark.parametrize("double_pipeline", [True, False])
    def test_a_late_weight_share_holds_back_only_what_reads_it(self, double_pipeline):
        ctx = make_ctx(
            seed=0, placement_mode="gpu_always", trace=True, double_pipeline=double_pipeline
        )
        x, y = _product_operands(ctx, 0, 64, 96, 32)
        early = tuple(cpu.run(100e-6, label="activation") for cpu in ctx.server_cpu)
        late = tuple(cpu.run(1e-3, label="weight") for cpu in ctx.server_cpu)
        x = SharedTensor(ctx=ctx, shares=x.shares, tasks=early)
        y = SharedTensor(ctx=ctx, shares=y.shares, tasks=late)
        start = len(ctx.online_clock.trace)
        secure_matmul(x, y, label="p")
        placed = ctx.online_clock.trace[start:]
        for i, (rec, gpu) in enumerate(zip(ctx.server_reconstruct_cpu, ctx.server_gpu)):
            on = {t.label: t for t in placed if t.resource in (rec.resource, gpu.h2d_engine)}
            subtract, share, upload = on[f"p:E{i}"], on["p:h2d:A"], on["p:h2d:E"]
            combine_f = on["p:combineF"]
            if double_pipeline:
                assert subtract.start == share.start == early[i].finish
                assert upload.start < combine_f.finish
            else:
                assert min(subtract.start, share.start) >= late[i].finish
                assert upload.start >= combine_f.finish


class TestWithoutPipeline1:
    """Without pipeline 1 each kernel waits on every upload, and still on
    the kernel that feeds it."""

    def test_no_kernel_runs_before_its_producer(self):
        """Stream 0 idle until 100 us, busy for 1 ms after: ``D`` fits
        the gap, the GEMM does not, and the ``C`` add after it must not
        take the rest of the gap."""
        ctx = make_ctx(seed=0, placement_mode="gpu_always", pipeline1=False, trace=True)
        rng = np.random.default_rng(0)
        x = SharedTensor.from_plain(ctx, rng.normal(size=(64, 256)), label="x")
        y = SharedTensor.from_plain(ctx, rng.normal(size=(256, 8)), label="y")
        for gpu in ctx.server_gpu:
            gpu.clock.run(gpu.stream(0), 1e-3, deps=(Task("idle", "idle", 0.0, 100e-6),))
        start = len(ctx.online_clock.trace)
        out = secure_matmul(x, y, label="p")
        placed = ctx.online_clock.trace[start:]
        for gpu, done in zip(ctx.server_gpu, out.tasks):
            kernels = [t for t in placed if t.resource == gpu.stream(0)]
            assert len(kernels) == 3  # D, the GEMM, C
            uploads = max(t.finish for t in placed if t.resource == gpu.h2d_engine)
            for producer, kernel in zip(kernels, kernels[1:]):
                assert kernel.start >= max(producer.finish, uploads), (producer, kernel)
            assert done.start >= kernels[-1].finish > 1e-3


_FUSED_SHAPES = st.tuples(
    st.integers(0, 3), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
)


@pytest.mark.property
class TestFusedRescaleProperties:
    """A fused-rescale product's shares are the unrescaled product's,
    each truncated by :func:`truncate_share`: bit for bit, on both
    servers and both devices, for matrices and stacks, either operand
    read transposed."""

    @staticmethod
    def _twins(device, seed):
        return [make_ctx(seed=seed, placement_mode=f"{device}_always") for _ in range(2)]

    @settings(max_examples=40, deadline=None)
    @given(
        _FUSED_SHAPES, st.tuples(st.booleans(), st.booleans()),
        st.sampled_from(("cpu", "gpu")), st.integers(0, 2**16),
    )
    def test_matmul(self, shape, trans, device, seed):
        fused, plain = self._twins(device, seed)
        outs = []
        for ctx in (fused, plain):
            x, y = _product_operands(ctx, *shape, trans, seed=seed)
            if ctx is fused:
                outs.append(secure_matmul(x, y, label="p").shares)
            else:
                raw = ctx.backend.matmul(ctx, x, y, label="p", rescale=False).shares
                bits = ctx.encoder.frac_bits
                outs.append(tuple(truncate_share(s, bits, i) for i, s in enumerate(raw)))
        for party in (0, 1):
            np.testing.assert_array_equal(outs[0][party], outs[1][party])

    @settings(max_examples=40, deadline=None)
    @given(_FUSED_SHAPES, st.sampled_from(("cpu", "gpu")), st.integers(0, 2**16))
    def test_hadamard(self, shape, device, seed):
        fused, plain = self._twins(device, seed)
        outs = []
        for ctx in (fused, plain):
            x, _ = _product_operands(ctx, *shape, seed=seed)
            if ctx is fused:
                outs.append(secure_elementwise_mul(x, x, label="h").shares)
            else:
                raw = ctx.backend.elementwise_mul(ctx, x, x, label="h", rescale=False).shares
                bits = ctx.encoder.frac_bits
                outs.append(tuple(truncate_share(s, bits, i) for i, s in enumerate(raw)))
        for party in (0, 1):
            np.testing.assert_array_equal(outs[0][party], outs[1][party])


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
