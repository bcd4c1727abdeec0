"""Profiling-guided adaptive GPU utilisation (paper Section 4.2).

The paper profiles the two-party computation, finds that the offline
``Z = U x V`` product and the online Eq. 8 GEMM dominate, and places
*only those* on the GPU — pushing small steps there loses to PCIe
overhead and kernel launch latency ("extra 4.5 percent performance
degradation", Section 4.2).

:class:`StepProfiler` reproduces the mechanism rather than hard-coding
the paper's conclusion.  A call site names the *plan* it will run, and
the profiler prices the steps each device would take under that plan
with one cost function (:meth:`StepProfiler.step_prices`), then picks a
device:

* ``beaver2pc`` — one server's Eq. 8 product ``(m,k) x (k,n)``.  GPU,
  in Fig. 5's order: the uploads of ``E`` and ``A_i``, the ``D``
  kernel, the uploads of ``F`` and ``B_i``, ``D @ F`` and ``E @ B_i``
  as one batched GEMM launch (a stack of ``2 * batch``), the upload of
  ``Z``, the fused ``C`` add (with the product's rescale, if any) and
  ``C``'s download — what
  :func:`~repro.pipeline.scheduler.schedule_secure_gemm` places, less
  the resident slots: those the server's device table holds (``D`` by
  its ``("lead", uid)`` row, and ``A_i`` has no upload where ``D`` is),
  and the server's own shares that cross PCIe while ``E``/``F`` are on
  the wire (:meth:`StepProfiler.shares_under_exchange`).  CPU: the
  fused ``(m, 2k, n)`` GEMM (``cpu_gemm``) and the ``+Z`` add, which
  also rescales.
* ``rep3`` — the cross-term product, fused to ``(m, 2k, n)``: the
  uploads of the left pair ``[x_i | x_{i+1}]`` (``h2d:L``) and the right
  pair ``[y_i + y_{i+1} ; y_i]`` (``h2d:R``) less the parts the party's
  device table holds (slots ``A``, ``A2`` and ``Y``, ``B``), one GEMM
  and one download against the same GEMM on the CPU (``cpu_gemm``).
* ``dealer`` — the client's ``Z = U x V``: two uploads (``h2d:U``,
  ``h2d:V``), one GEMM (``U@V``), one download (``d2h:Z``) against the
  CPU GEMM (``U@V``).
* ``beaver2pc.mul`` / ``rep3.mul`` — a Hadamard product: four uploads,
  one kernel and one download against the kernel on the CPU
  (``beaver2pc``'s kernel also rescales a fixed x fixed product).
* ``rng`` — the client's cuRAND generation and download against its
  MT19937.
* CPU-only plans (:data:`_CPU_PLANS`) — every other cost the protocols
  and layers charge; no mode places them on the GPU.

Plans are data: :meth:`StepProfiler.run_plan` places exactly a plan's
steps on the device the profiler picks, each priced by that party's own
device with :func:`~repro.simgpu.cost.step_seconds`, the function
:meth:`StepProfiler.step_prices` prices with.  It runs every plan, products
included; the call site computes the values.  The one exception is a
GPU-placed ``beaver2pc`` product: its own shares wait on the operands,
not on the opening, and without pipeline 1 every kernel waits on every
upload, which a sequence of steps cannot say, so
:func:`~repro.pipeline.scheduler.schedule_secure_gemm` places those
steps by hand.  A sequence's edges are its order: uploads start on the
plan's readiness, and every other step waits for the one before it and
the uploads since, so the ``beaver2pc`` plan is pipeline 1's graph.

The price is memoised per (plan, shape, resident slots), so a cold and
a warm call of one product are separate decisions.  A server plan goes
to the device on which it *finishes* first: each step at its memoised
price, started where the party's clock would start it
(:func:`plan_finish`, which reads the clock's gap rule through
:meth:`~repro.simgpu.clock.SimClock.probe` and places nothing), the
later party's finish deciding — so a server CPU already busy past a
product's readiness sends it to the GPU.  The client's ``dealer`` and
``rng`` plans, and a decision asked without the parties, take the
cheaper static price (the ``rng`` price leaves out cuRAND's warm-up,
which a queue-aware pick would lean on).  With adaptivity disabled the
profiler forces either device, so the ablation benchmark can show the
mechanism's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, NamedTuple

from repro.simgpu.cost import CPUSpec, DeviceSpec, step_seconds

Placement = Literal["cpu", "gpu"]


class Step(NamedTuple):
    """``op`` at ``size`` (:func:`~repro.simgpu.cost.step_seconds`); its
    task is labelled ``{label}:{name}``, or ``label`` without a name."""

    op: str
    size: tuple
    name: str = ""


#: A Hadamard product, per backend: the bytes its kernel touches per
#: operand byte, and the operands a GPU run uploads.
_MUL = {"beaver2pc.mul": (5, ("E", "F", "A", "B")), "rep3.mul": (4, ("A", "A2", "B", "B2"))}

#: Plans only a CPU runs, ``plan -> (op, per)``: one ``op`` step over
#: ``per`` bytes for each unit of the plan's shape ``(n,)``.
_CPU_PLANS = {
    "encode": ("encode", 1),  # the client's float -> ring encoding of n bytes
    "pass": ("elementwise", 1),  # one pass over n bytes: a share split, im2col, pooling, a fold
    "compress": ("elementwise", 0.5),  # a sender's scan of the n bytes it opens (0: off)
    "compare": ("elementwise", 70),  # one comparing party's bit-ops over n elements
    "prg": ("rng", 2),  # rep3: the two pairwise PRG streams behind an n-byte zero share
    "rep3.trunc0": ("elementwise", 3),  # rep3 party 0: fold x0 + x1 and truncate
    "rep3.trunc": ("elementwise", 2),  # rep3 parties 1 and 2: truncate x2
}

#: A product run as one GEMM, ``plan -> step names``: the left and
#: right uploads, the GEMM and the download on a GPU, the GEMM on a CPU.
_PRODUCTS = {
    "dealer": ("h2d:U", "h2d:V", "U@V", "d2h:Z", "U@V"),  # the client's Z = U x V
    "rep3": ("h2d:L", "h2d:R", "gemm", "d2h", "cpu_gemm"),  # the fused cross-term
}

#: The slots of each upload of a ``rep3`` product, one operand-sized
#: part each: the left pair ``x_i``, ``x_{i+1}``; the right pair
#: ``y_i + y_{i+1}``, ``y_i``.
REP3_SLOTS = (("A", "A2"), ("Y", "B"))

#: The client's plans that have GPU steps, priced at ``client_parallel``.
_CLIENT_PLANS = frozenset({"dealer", "rng"})


@dataclass(frozen=True)
class PlacementDecision:
    """The profiler's verdict for one (plan, shape, resident slots): the
    static price on each device and, for a server plan placed where it
    finishes first, when it would finish on each (the later party's;
    None on a device that could not have finished first, so was not
    read)."""

    plan: str
    shape: tuple
    resident: tuple[str, ...]
    placement: Placement
    cpu_estimate_s: float
    gpu_estimate_s: float
    cpu_finish_s: float | None = None
    gpu_finish_s: float | None = None


@lru_cache(maxsize=4096)  # the executor asks on every charge
def plan_steps(
    plan: str, shape: tuple, resident: tuple[str, ...] = ()
) -> tuple[tuple[Step, ...], tuple[Step, ...]]:
    """``(cpu steps, gpu steps)`` of ``plan`` at ``shape``; a CPU-only
    plan has no GPU steps.

    A product's shape is ``(batch, m, k, n)``: ``batch`` stacked
    ``(m,k) x (k,n)`` products (1 for a matrix).  A Hadamard product's
    and an RNG draw's is ``(nbytes,)`` of one operand, a CPU-only
    plan's ``(n,)`` in its own unit (:data:`_CPU_PLANS`).  ``resident``
    names the slots no step places: ``beaver2pc``'s ``D``, ``E``,
    ``A``, ``F``, ``B``, ``Z``; ``rep3``'s upload parts
    (:data:`REP3_SLOTS`).
    """
    if plan in _CPU_PLANS:
        op, per = _CPU_PLANS[plan]
        (n,) = shape
        return (Step(op, (per * n,)),), ()
    if plan in _MUL:
        traffic, uploads = _MUL[plan]
        kernel = (traffic * shape[0],)
        gpu = [Step("h2d", shape, f"h2d:{slot}") for slot in uploads]
        gpu += [Step("elementwise", kernel, "kernel"), Step("d2h", shape, "d2h")]
        return (Step("elementwise", kernel, "cpu"),), tuple(gpu)
    if plan == "rng":
        return (Step("rng", shape),), (Step("rng", shape, "curand"), Step("d2h", shape, "d2h"))
    batch, m, k, n = shape
    out = 8 * batch * m * n
    if plan == "beaver2pc":
        # Fig. 5 as a sequence: D waits for E and A_i, the one batched
        # [D, E] @ [F, B_i] launch for D, F and B_i, C for the GEMM and Z_i
        steps = {slot: Step("h2d", (nbytes,)) for slot, nbytes in _beaver_uploads(*shape, resident)}
        if "D" not in resident:  # D = A_i - E (server 1's)
            steps["D"] = Step("elementwise", (3 * 8 * batch * m * k,))
        steps["GEMM"] = Step("gemm", (2 * batch, m, k, n))
        order = ("E", "A", "D", "F", "B", "GEMM", "Z")
        gpu = [steps[name] for name in order if name in steps]
        gpu += [Step("elementwise", (4 * out,)), Step("d2h", (out,))]
        fused = Step("gemm", (batch, m, 2 * k, n), "cpu_gemm")
        return (fused, Step("elementwise", (3 * out,), "+Z")), tuple(gpu)
    if plan not in _PRODUCTS:
        raise ValueError(f"unknown plan {plan!r}")
    left, right, kernel, download, cpu_kernel = _PRODUCTS[plan]
    uploads = ((left, 8 * batch * m * k, 1), (right, 8 * batch * k * n, 1))
    if plan == "rep3":  # each upload is the parts of its pair the party lacks
        uploads = tuple(
            (name, nbytes, sum(slot not in resident for slot in pair))
            for (name, nbytes, _one), pair in zip(uploads, REP3_SLOTS)
        )
        k *= 2  # both cross terms in one GEMM
    gpu = [Step("h2d", (parts * nbytes,), name) for name, nbytes, parts in uploads if parts]
    gpu += [Step("gemm", (batch, m, k, n), kernel), Step("d2h", (out,), download)]
    return (Step("gemm", (batch, m, k, n), cpu_kernel),), tuple(gpu)


def _beaver_uploads(batch: int, m: int, k: int, n: int, resident=()) -> list[tuple[str, int]]:
    """A ``beaver2pc`` GPU product's uploads, ``(slot, nbytes)`` in
    Fig. 5's order, less the ``resident`` slots (``A_i``'s only reader
    is ``D``)."""
    lead, right = 8 * batch * m * k, 8 * batch * k * n
    uploads = (("E", lead), ("A", lead), ("F", right), ("B", right), ("Z", 8 * batch * m * n))
    skip = {*resident, "A"} if "D" in resident else set(resident)
    return [(slot, nbytes) for slot, nbytes in uploads if slot not in skip]


#: Every plan :func:`plan_steps` declares.
PLANS = (*_CPU_PLANS, *_MUL, "rng", "beaver2pc", *_PRODUCTS)


class StepProfiler:
    """Prices plans on both devices and places them; memoises per
    (plan, shape, resident slots)."""

    def __init__(
        self,
        cpu_spec: CPUSpec,
        gpu_spec: DeviceSpec,
        *,
        mode: Literal["adaptive", "cpu_always", "gpu_always"] = "adaptive",
        tensor_core: bool = False,
        cpu_parallel: bool = True,
        client_parallel: bool = True,
    ):
        self.cpu_spec = cpu_spec
        self.gpu_spec = gpu_spec
        self.mode = mode
        self.tensor_core = tensor_core
        self.cpu_parallel = cpu_parallel
        self.client_parallel = client_parallel
        #: the last decision per (plan, shape, resident slots)
        self.decisions: dict[tuple, PlacementDecision] = {}
        # memoised per (plan, shape, resident slots): the static decision,
        # each device's steps and their prices
        self._prices: dict[tuple, tuple] = {}

    # -- the cost function ------------------------------------------------------

    def step_prices(
        self, device: Placement, steps: tuple[Step, ...], *, parallel: bool | None = None
    ) -> tuple[float, ...]:
        """Simulated seconds of each of ``steps`` on ``device``; a CPU runs
        at ``parallel`` (default: the servers' ``cpu_parallel``)."""
        spec = self.gpu_spec if device == "gpu" else self.cpu_spec
        parallel = self.cpu_parallel if parallel is None else parallel
        return tuple(
            step_seconds(spec, op, size, parallel=parallel, tensor_core=self.tensor_core)
            for op, size, _name in steps
        )

    def seconds(
        self, device: Placement, steps: tuple[Step, ...], *, parallel: bool | None = None
    ) -> float:
        """Simulated seconds of ``steps`` run back to back on ``device``."""
        return sum(self.step_prices(device, steps, parallel=parallel))

    def _price(self, plan: str, shape: tuple, resident: tuple[str, ...]) -> tuple:
        """``(static decision, cpu steps, gpu steps, their prices)``, memoised."""
        key = (plan, shape, resident)
        price = self._prices.get(key)
        if price is None:
            cpu_steps, gpu_steps = plan_steps(plan, shape, resident)
            parallel = self.client_parallel if plan in _CLIENT_PLANS else self.cpu_parallel
            cpu = self.step_prices("cpu", cpu_steps, parallel=parallel)
            gpu = self.step_prices("gpu", gpu_steps)
            if not gpu_steps or self.mode == "cpu_always":
                placement: Placement = "cpu"
            elif self.mode == "gpu_always":
                placement = "gpu"
            else:
                placement = "gpu" if sum(gpu) < sum(cpu) else "cpu"
            static = PlacementDecision(plan, shape, resident, placement, sum(cpu), sum(gpu))
            price = self._prices[key] = (static, cpu_steps, gpu_steps, cpu, gpu)
        return price

    # -- placement -------------------------------------------------------------

    def decide(
        self, plan: str, shape: tuple, resident: tuple[str, ...] = (), *, parties=()
    ) -> PlacementDecision:
        """Placement for ``plan`` at ``shape`` with ``resident`` slots held.

        ``parties`` are the ``(cpu, gpu, deps)`` of each server that runs
        the plan: an adaptive server plan then goes to the device on
        which it finishes first (the later party's finish), each step
        priced as above and started where the party's clock would start
        it (:func:`plan_finish`).  Without ``parties``, and for the
        client's plans, the cheaper static price decides.
        """
        static, *plans = self._price(plan, shape, resident)
        decision = static
        if parties and plans[1] and self.mode == "adaptive" and plan not in _CLIENT_PLANS:
            decision = self._finish_first(static, plans, parties)
        self.decisions[plan, shape, resident] = decision
        return decision

    @staticmethod
    def _finish_first(static: PlacementDecision, plans, parties) -> PlacementDecision:
        """``static`` placed on the device that finishes first on the
        parties' clocks.  The statically cheaper device is read first; the
        other is read only if, idle, it could beat that finish."""
        cpu_steps, gpu_steps, cpu_prices, gpu_prices = plans
        runs = {"cpu": (0, cpu_steps, cpu_prices), "gpu": (1, gpu_steps, gpu_prices)}
        first = static.placement
        second: Placement = "gpu" if first == "cpu" else "cpu"
        at = {first: plan_finish(parties, *runs[first]), second: None}
        if plan_finish(parties, *runs[second], idle=True) <= at[first]:
            at[second] = plan_finish(parties, *runs[second])
        placement = first if at[second] is None else ("gpu" if at["gpu"] < at["cpu"] else "cpu")
        return PlacementDecision(
            static.plan, static.shape, static.resident, placement,
            static.cpu_estimate_s, static.gpu_estimate_s, at["cpu"], at["gpu"],
        )

    def place_gemm(
        self,
        batch: int,
        m: int,
        k: int,
        n: int,
        *,
        plan: str = "dealer",
        resident: tuple[str, ...] = (),
        parties=(),
    ) -> PlacementDecision:
        """Placement for ``batch`` stacked ``(m,k) x (k,n)`` products (1
        for a matrix) run as ``plan`` (``parties``: see :meth:`decide`)."""
        return self.decide(plan, (batch, m, k, n), resident, parties=parties)

    def shares_under_exchange(
        self, parties, shape: tuple, resident: tuple[str, ...]
    ) -> tuple[str, ...]:
        """The server's own shares, ``A`` and ``B``, of a ``beaver2pc``
        product at ``shape`` that cross PCIe while ``E``/``F`` are
        exchanged: on every party's H2D engine the upload, ready with
        the operands, fits before the opening (in Fig. 5's order, each
        where :meth:`~repro.simgpu.clock.SimClock.probe` says; nothing is
        placed).  No step after the opening waits for them, so the plan
        prices them as resident.  ``parties`` are each server's ``(gpu,
        operand deps, opening deps)``; ``resident`` slots upload nothing.
        """
        uploads = [
            (slot, self.step_prices("gpu", (Step("h2d", (nbytes,)),))[0])
            for slot, nbytes in _beaver_uploads(*shape, resident)
            if slot in "AB"
        ]
        early = {slot for slot, _seconds in uploads}
        for gpu, share_deps, opening_deps in parties:
            resource, taken = gpu.resource_for("h2d"), []
            ready, opening = _finished(share_deps), _finished(opening_deps)
            for slot, seconds in uploads:
                start = gpu.clock.probe(resource, seconds, ready, taken)
                if start + seconds <= opening:
                    taken.append((start, start + seconds))
                else:
                    early.discard(slot)
        return tuple(sorted(early))

    # -- the executor ------------------------------------------------------------

    def run_plan(
        self, cpu, gpu, plan: str, shape: tuple, *, deps, label: str,
        resident: tuple[str, ...] = (),
    ) -> list:
        """Place ``plan``'s steps at ``shape``, less the ``resident``
        slots, on one party's ``cpu`` or ``gpu`` (None where it has
        none), whichever :meth:`decide` picks for that party after
        ``deps``, and return their tasks in step order.

        Each device prices a step itself, at its own spec and parallel
        flag.  Uploads start together on ``deps``, the step after them
        waits for all of them, and every other step waits for the one
        before it.
        """
        cpu_steps, gpu_steps = plan_steps(plan, shape, resident)
        parties = ((cpu, gpu, deps),)
        decision = gpu is not None and self.decide(plan, shape, resident, parties=parties)
        if decision and decision.placement == "gpu":
            device, steps = gpu, gpu_steps
        else:
            device, steps = cpu, cpu_steps
        tasks, after, uploads = [], tuple(deps), []
        for op, size, name in steps:
            step_label = f"{label}:{name}" if name else label
            if op == "h2d":
                uploads.append(device.run_step(op, size, deps, step_label))
                tasks.append(uploads[-1])
            else:
                tasks.append(device.run_step(op, size, (*after, *uploads), step_label))
                after, uploads = (tasks[-1],), []
        return tasks


def plan_finish(
    parties, device: int, steps: tuple[Step, ...], prices: tuple[float, ...], *, idle: bool = False
) -> float:
    """When :meth:`StepProfiler.run_plan` would finish ``steps``, priced
    ``prices``, on each party's CPU (``device`` 0) or GPU (1) after that
    party's deps — the latest of the parties' finishes.  Each step starts
    where :meth:`~repro.simgpu.clock.SimClock.probe` says the party's
    clock would start it, and nothing is placed.  Only the uploads, which
    all start on the deps, can land in each other's way; every other
    step starts after the plan's earlier steps have finished.  ``idle``
    starts each step as soon as it is ready, as on an idle device: no
    run of the plan finishes earlier."""
    latest = 0.0
    for party in parties:
        unit, probe = party[device], party[device].clock.probe
        ready = _finished(party[2])
        uploads, after = [], ready  # after: what the next non-upload step waits for
        finish = ready
        for (op, _size, _name), seconds in zip(steps, prices):
            if op == "h2d":
                start = ready if idle else probe(unit.resource_for(op), seconds, ready, uploads)
                finish = start + seconds
                uploads.append((start, finish))
                if finish > after:
                    after = finish
            else:
                start = after if idle else probe(unit.resource_for(op), seconds, after)
                after = finish = start + seconds
        if finish > latest:
            latest = finish
    return latest


def _finished(deps) -> float:
    """When ``deps`` have finished, as :meth:`~repro.simgpu.clock.SimClock.run`
    reads them (0 for none)."""
    ready = 0.0
    for dep in deps:
        if dep is not None and dep.finish > ready:
            ready = dep.finish
    return ready
