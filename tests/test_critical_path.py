"""Backward runs the critical path first, and §4.2 places a server plan
where it finishes first.

* Every backward issues the input gradient the layer below waits on
  before the weight gradients only the update reads, while the dealer
  still deals the weight gradients' triplets first.
* A server plan goes to the device on which it *finishes* first on the
  party's clock — a CPU already busy past the plan's readiness sends it
  to the GPU — and the finish the profiler reads with
  :meth:`~repro.simgpu.clock.SimClock.probe` is the one
  :meth:`~repro.pipeline.profiler.StepProfiler.run_plan` then pays.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.conformance import ConformanceCase, conformance_workload
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import build_secure
from repro.core.training import SecureTrainer
from repro.pipeline.profiler import StepProfiler
from repro.protocols import beaver2pc
from repro.simgpu.clock import SimClock, Task
from repro.simgpu.cost import V100_SPEC, XEON_E5_2670V3_SPEC
from repro.simgpu.device import SimCPU, SimGPU

#: (input gradient, weight gradient) label suffixes of one backward.
PAIRS = (("/dX", "/dW"), ("/dC", "/dWo"), ("/dX", "/dWqkv"))


def _products(monkeypatch, ctx, model, x, y):
    """Train one epoch and return, per beaver2pc product, its label and
    the first online task it placed, plus the labels the dealer dealt,
    in order."""
    first, dealt = {}, []
    matmul, deal = beaver2pc.Beaver2PCBackend.matmul, SecureContext.gen_matrix_triplet

    def timed(self, ctx, a, b, *, label, **kw):
        start = len(ctx.online_clock.trace)
        out = matmul(self, ctx, a, b, label=label, **kw)
        first[label] = (start, ctx.online_clock.trace[start])
        return out

    def dealing(self, *args, label="", **kw):
        dealt.append(label)
        return deal(self, *args, label=label, **kw)

    monkeypatch.setattr(beaver2pc.Beaver2PCBackend, "matmul", timed)
    monkeypatch.setattr(SecureContext, "gen_matrix_triplet", dealing)
    SecureTrainer(ctx, model, lr=0.125, monitor_loss=False).train(x, y, batch_size=len(x))
    monkeypatch.undo()
    return first, dealt


@pytest.mark.parametrize("model", ["MLP", "CNN", "attention"])
def test_each_input_gradient_is_issued_before_its_weight_gradient(monkeypatch, model):
    case = ConformanceCase(model=model, axis="baseline", train=True)
    x, y, geometry = conformance_workload(case)
    x, y = x[: case.batch_size], y[: case.batch_size]
    ctx = SecureContext.create(FrameworkConfig(seed=0, trace=True))
    secure = build_secure(model, ctx, **geometry)
    _, dealt = _products(monkeypatch, ctx, secure, x, y)  # the dealing step
    warm, _ = _products(monkeypatch, ctx, secure, x, y)
    pairs = [
        (layer + dx, layer + dw)
        for label in warm
        for dx, dw in PAIRS
        if label.endswith(dw) and (layer := label.removesuffix(dw)) + dx in warm
    ]
    assert len(pairs) >= {"MLP": 1, "CNN": 2, "attention": 2}[model]
    for dx, dw in pairs:
        (dx_at, dx_task), (dw_at, dw_task) = warm[dx], warm[dw]
        assert dx_at < dw_at and dx_task.start <= dw_task.start, (dx, dw)
        assert dealt.index(dw) < dealt.index(dx), (dx, dw)


# -------------------------------------------------------- finish-time placement

#: A server product whose static price picks the CPU: 7 us there, 30 us
#: on a cold GPU.
PRODUCT = ("rep3", (1, 32, 16, 16))


def _party(clock=None, *, name="s0"):
    clock = clock or SimClock()
    return SimCPU(clock, XEON_E5_2670V3_SPEC, name), SimGPU(clock, V100_SPEC, f"{name}gpu")


def _profiler(mode="adaptive"):
    return StepProfiler(XEON_E5_2670V3_SPEC, V100_SPEC, mode=mode)


class TestFinishTimePlacement:
    def test_the_static_price_picks_the_cpu(self):
        decision = _profiler().decide(*PRODUCT)
        assert decision.placement == "cpu" and decision.cpu_finish_s is None
        assert decision.cpu_estimate_s < decision.gpu_estimate_s

    def test_a_cpu_busy_past_the_products_readiness_sends_it_to_the_gpu(self):
        cpu, gpu = _party()
        cpu.run(1e-3)  # busy until 1 ms; the operands are ready at 0
        profiler = _profiler()
        tasks = profiler.run_plan(cpu, gpu, *PRODUCT, deps=(), label="p")
        decision = profiler.decisions[(*PRODUCT, ())]
        assert decision.placement == "gpu"
        assert decision.gpu_finish_s == tasks[-1].finish < decision.cpu_finish_s
        assert {t.resource.split(".")[0] for t in tasks} == {gpu.name}

    def test_an_idle_cpu_keeps_it(self):
        cpu, gpu = _party()
        profiler = _profiler()
        (task,) = profiler.run_plan(cpu, gpu, *PRODUCT, deps=(), label="p")
        decision = profiler.decisions[(*PRODUCT, ())]
        assert decision.placement == "cpu" and task.resource == cpu.resource
        assert decision.cpu_finish_s == task.finish == decision.cpu_estimate_s

    @pytest.mark.parametrize("mode", ["cpu_always", "gpu_always"])
    @pytest.mark.parametrize("busy", ["cpu", "gpu"])
    def test_forced_modes_still_force_their_device(self, mode, busy):
        cpu, gpu = _party()
        cpu.run(1e-3) if busy == "cpu" else gpu.run_step("gemm", (64, 512, 512, 512))
        tasks = _profiler(mode).run_plan(cpu, gpu, *PRODUCT, deps=(), label="p")
        device = cpu if mode == "cpu_always" else gpu
        assert {t.resource.split(".")[0] for t in tasks} == {device.name}

    def test_both_servers_wait_for_the_later_one(self):
        """A product is done when both servers' shares are: one busy CPU
        sends both servers' halves to the GPU."""
        clock = SimClock()
        parties = [_party(clock, name=f"s{i}") for i in (0, 1)]
        parties[1][0].run(1e-3)
        decision = _profiler().place_gemm(
            *PRODUCT[1], plan="rep3", parties=[(cpu, gpu, ()) for cpu, gpu in parties]
        )
        assert decision.placement == "gpu" and decision.cpu_finish_s > 1e-3

    @pytest.mark.parametrize(("plan", "shape"), [("rng", (65536,)), ("dealer", (1, 32, 32, 32))])
    def test_a_client_decision_ignores_the_queue(self, plan, shape):
        cpu, gpu = _party(name="client")
        cpu.run(1.0)
        profiler = _profiler()
        static = profiler.decide(plan, shape)
        assert static.placement == "cpu"
        tasks = profiler.run_plan(cpu, gpu, plan, shape, deps=(), label="c")
        assert profiler.decisions[(plan, shape, ())] is static
        assert {t.resource for t in tasks} == {cpu.resource}


# ---------------------------------------------- hypothesis: probe follows run

MICROS = st.integers(1, 300).map(lambda us: us * 1e-6)


@st.composite
def loads(draw, max_tasks=10):
    """Random ``[(resource kind, duration, ready)]`` a party's resources
    already ran: tasks whose dependencies finish late leave idle gaps."""
    kinds = st.sampled_from(("cpu", "h2d", "s0", "d2h"))
    return [
        (draw(kinds), draw(MICROS), draw(st.integers(0, 1500).map(lambda us: us * 1e-6)))
        for _ in range(draw(st.integers(0, max_tasks)))
    ]


SERVER_PLANS = st.one_of(
    st.tuples(
        st.sampled_from(("rep3", "beaver2pc")),
        st.tuples(st.integers(1, 3), *[st.integers(1, 96)] * 3),
    ),
    st.tuples(
        st.sampled_from(("beaver2pc.mul", "rep3.mul")),
        st.tuples(st.integers(1, 1 << 16).map(lambda n: 8 * n)),
    ),
)


def _at(ready: float) -> tuple[Task, ...]:
    return (Task("<virtual>", "dep", ready, ready),)


def _loaded(load):
    cpu, gpu = _party()
    resource = {"cpu": cpu.resource, "h2d": gpu.h2d_engine, "s0": gpu.stream(0)}
    resource["d2h"] = gpu.d2h_engine
    for kind, duration, ready in load:
        cpu.clock.run(resource[kind], duration, deps=_at(ready))
    return cpu, gpu


@pytest.mark.property
class TestProbeProperties:
    @settings(max_examples=150, deadline=None)
    @given(loads(), st.lists(st.tuples(MICROS, MICROS), min_size=1, max_size=6))
    def test_probe_predicts_where_run_places_each_task(self, load, tasks):
        """Tasks run one after another on one loaded resource start
        where ``probe`` says, given the ones run before them."""
        cpu, _gpu = _loaded(load)
        clock, taken = cpu.clock, []
        placed = copy.deepcopy(clock)
        for duration, ready in tasks:
            start = clock.probe(cpu.resource, duration, ready, taken)
            task = placed.run(cpu.resource, duration, deps=_at(ready))
            assert task.start == start
            taken.append((task.start, task.finish))

    @settings(max_examples=150, deadline=None)
    @given(loads(), SERVER_PLANS, MICROS)
    def test_run_plan_picks_the_device_that_finishes_first(self, load, plan, ready):
        cpu, gpu = _loaded(load)
        other = copy.deepcopy((cpu, gpu))
        profiler = _profiler()
        tasks = profiler.run_plan(cpu, gpu, *plan, deps=_at(ready), label="p")
        decision = profiler.decisions[(*plan, ())]
        on = "gpu" if tasks[-1].resource.startswith(gpu.name) else "cpu"
        assert on == decision.placement
        forced = "cpu" if on == "gpu" else "gpu"
        alt = _profiler(f"{forced}_always").run_plan(*other, *plan, deps=_at(ready), label="p")[-1]
        finish = {on: tasks[-1].finish, forced: alt.finish}
        assert finish[on] <= finish[forced]
        # what the profiler read off the clock is what the run paid; a
        # device it did not read could not have finished first
        read = {"cpu": decision.cpu_finish_s, "gpu": decision.gpu_finish_s}
        assert read[on] == finish[on] and read[forced] in (None, finish[forced])

