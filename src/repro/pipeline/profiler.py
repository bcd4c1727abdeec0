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

* ``beaver2pc`` — one server's Eq. 8 product ``(m,k) x (k,n)``.  GPU:
  Fig. 5's graph (:func:`_beaver_gpu`) less the slots the server's row
  table holds.  CPU: the fused ``(m, 2k, n)`` GEMM (``cpu_gemm``) and
  the ``+Z`` add, which also rescales.
* ``rep3`` — the cross-term product, fused to ``(m, 2k, n)``: the
  uploads of the left pair ``[x_i | x_{i+1}]`` (``h2d:L``) and the right
  pair ``[y_i + y_{i+1} ; y_i]`` (``h2d:R``) less the parts the party's
  row table holds (slots ``A``, ``A2`` and ``Y``, ``B``), one GEMM
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
:meth:`StepProfiler.step_prices` prices with; the call site computes
the values.  A plan is a small step graph (:class:`Step`,
:func:`_graph`): :meth:`StepProfiler.run_plan` places it and
:func:`plan_finish` probes it.

The price is memoised per (plan, shape, resident slots), so a cold and
a warm call of one product are separate decisions.  A server plan goes
to the device on which it *finishes* first: each step at its memoised
price, started where the party's clock would start it
(:func:`plan_finish`, which reads the clock's gap rule through
:meth:`~repro.simgpu.clock.SimClock.probe` and places nothing), the
later party's finish deciding — so a server CPU already busy past a
product's readiness sends it to the GPU.  A server product's deps name
what each step reads, so a ``beaver2pc`` upload can run before the rest
of the opening arrives and the static price, which starts every step
after the opening, decides no server product.  The client's ``dealer``
and ``rng`` plans, and a decision asked without the parties, take the
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
    task is labelled ``{label}:{name}``, or ``label`` without a name.
    ``after``: what it waits on — earlier steps by index, by name a dep
    class or resident slot (:meth:`StepProfiler.run_plan`'s ``deps``) —
    or None for the sequence rule (:func:`_graph`)."""

    op: str
    size: tuple
    name: str = ""
    after: tuple | None = None


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

#: The name of each server's ``D`` kernel: server 0's copies ``A_0``,
#: server 1's computes ``A_1 - E``.
BEAVER_LEAD = ("D=A", "D=A-E")

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
    plan: str, shape: tuple, resident: tuple[str, ...] = (), party: int = 1,
    pipeline1: bool = True,
) -> tuple[tuple[Step, ...], tuple[Step, ...]]:
    """``(cpu steps, gpu steps)`` of ``plan`` at ``shape``; a CPU-only
    plan has no GPU steps.

    A product's shape is ``(batch, m, k, n)``: ``batch`` stacked
    ``(m,k) x (k,n)`` products (1 for a matrix).  A Hadamard product's
    and an RNG draw's is ``(nbytes,)`` of one operand, a CPU-only
    plan's ``(n,)`` in its own unit (:data:`_CPU_PLANS`).  ``resident``
    names the slots no step places: ``beaver2pc``'s ``D``, ``E``,
    ``A``, ``F``, ``B``, ``Z``; ``rep3``'s upload parts
    (:data:`REP3_SLOTS`).  ``party`` and ``pipeline1`` shape only the
    ``beaver2pc`` GPU graph (:func:`_beaver_gpu`).
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
        fused = Step("gemm", (batch, m, 2 * k, n), "cpu_gemm")
        gpu = _beaver_gpu(shape, resident, party, pipeline1)
        return (fused, Step("elementwise", (3 * out,), "+Z")), gpu
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


def _beaver_gpu(shape: tuple, resident, party: int, pipeline1: bool) -> tuple[Step, ...]:
    """Server ``party``'s ``beaver2pc`` GPU product in Fig. 5's order,
    each step waiting on what it reads: an upload on its slot by name
    (the host value's readiness: ``E``, ``F`` each half's opening, ``A``,
    ``B`` each operand's share, ``Z`` the whole opening), a kernel on the
    steps that produce its inputs; without ``pipeline1`` each kernel on
    every upload too.  A resident slot places nothing, and its readers
    wait on its name (the row's task); ``A_i``'s only reader is ``D``."""
    batch, m, k, n = shape
    lead, right, out = 8 * batch * m * k, 8 * batch * k * n, 8 * batch * m * n
    skip = {*resident, "A"} if "D" in resident else set(resident)
    sizes = zip("EAFBZ", (lead, lead, right, right, out))
    uploads = {slot: nbytes for slot, nbytes in sizes if slot not in skip}
    kernels = {  # slot -> (its step, the slots it reads)
        "D": (Step("elementwise", ((3 if party else 2) * lead,), BEAVER_LEAD[party]), "EA"),
        "G": (Step("gemm", (2 * batch, m, k, n), "[D,E]@[F,B]"), "DFEB"),
        "C": (Step("elementwise", (4 * out,), "C=G1+G2+Z"), "GZ"),
    }
    every = "" if pipeline1 else "EFBZ" if "D" in resident else "EAFBZ"
    nodes = []
    for slot in "EADFBGZC":
        if slot in uploads:
            nodes.append((slot, Step("h2d", (uploads[slot],), f"h2d:{slot}", (slot,)), ""))
        elif slot in kernels and slot not in resident:
            step, reads = kernels[slot]
            nodes.append((slot, step, reads + every))
    nodes.append(("", Step("d2h", (out,), "d2h:C"), "C"))
    index = {slot: i for i, (slot, _step, _reads) in enumerate(nodes)}
    return tuple(
        step._replace(after=tuple(index.get(read, read) for read in reads)) if reads else step
        for _slot, step, reads in nodes
    )


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
        pipeline1: bool = True,
    ):
        self.cpu_spec = cpu_spec
        self.gpu_spec = gpu_spec
        self.mode = mode
        self.tensor_core = tensor_core
        self.cpu_parallel = cpu_parallel
        self.client_parallel = client_parallel
        self.pipeline1 = pipeline1  # the beaver2pc GPU graph's edge set
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
            for op, size, _name, _after in steps
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
            cpu_steps, gpu_steps = plan_steps(plan, shape, resident, pipeline1=self.pipeline1)
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

    # -- the executor ------------------------------------------------------------

    def run_plan(
        self, cpu, gpu, plan: str, shape: tuple, *, deps, label: str,
        resident: tuple[str, ...] = (), party: int = 1,
    ) -> list:
        """Place ``plan``'s steps at ``shape``, less the ``resident``
        slots, on one party's ``cpu`` or ``gpu`` (:meth:`decide` picks
        after ``deps``; a caller that placed the plan, as for both
        servers' ``beaver2pc`` product, passes the other as None) and
        return their tasks in step order, each priced by its device.
        ``deps`` maps a dep class or resident slot to tasks, or is one
        tuple for every name; ``party`` names a ``beaver2pc`` server."""
        cpu_steps, gpu_steps = plan_steps(plan, shape, resident, party, self.pipeline1)
        if cpu is None or gpu is None:
            on_gpu = cpu is None
        else:
            parties = ((cpu, gpu, deps),)
            on_gpu = self.decide(plan, shape, resident, parties=parties).placement == "gpu"
        device, steps = (gpu, gpu_steps) if on_gpu else (cpu, cpu_steps)
        tasks = [None] * len(steps)
        for i, after in _graph(steps):
            waits = []
            for ref in after:
                waits += (tasks[ref],) if isinstance(ref, int) else _named(deps, ref)
            op, size, name, _after = steps[i]
            tasks[i] = device.run_step(op, size, waits, f"{label}:{name}" if name else label)
        return tasks


@lru_cache(maxsize=4096)
def _graph(steps: tuple[Step, ...]) -> tuple[tuple[int, tuple], ...]:
    """``(index, after)`` of each of ``steps`` in placement order: list
    order, a step held back until the steps it names are placed.  A step
    that names none follows the sequence rule: an upload waits on the
    plan's deps (``open``), any other step on the one before it (the
    deps, for the first) and the uploads since."""
    edges, last, since = [], "open", []
    for i, (op, _size, _name, after) in enumerate(steps):
        if after is None and op == "h2d":
            after = ("open",)
            since.append(i)
        elif after is None:
            after, last, since = (last, *since), i, []
        edges.append(after)
    order, placed = [], set()
    while len(order) < len(steps):
        before = len(order)
        for i, after in enumerate(edges):
            if i not in placed and placed.issuperset(r for r in after if isinstance(r, int)):
                placed.add(i)
                order.append((i, after))
        if len(order) == before:
            raise ValueError(f"a plan's steps wait on each other: {steps}")
    return tuple(order)


def _named(deps, name: str) -> tuple:
    """The tasks a step that names ``name`` (a dep class, a resident
    slot) waits on: what a mapping ``deps`` holds for it, or a tuple of
    ``deps`` whole."""
    return deps.get(name, ()) if isinstance(deps, dict) else deps


def plan_finish(
    parties, device: int, steps: tuple[Step, ...], prices: tuple[float, ...], *, idle: bool = False
) -> float:
    """When :meth:`StepProfiler.run_plan` would finish ``steps``, priced
    ``prices``, on each party's CPU (``device`` 0) or GPU (1) after that
    party's deps — the latest of the parties' finishes.  The graph is
    walked as ``run_plan`` walks it (:func:`_graph`), and each step
    starts where :meth:`~repro.simgpu.clock.SimClock.probe` says the
    party's clock would start it, with the plan's earlier steps on its
    resource taken; nothing is placed.  ``idle`` starts each step as
    soon as what it waits on has finished, as on an idle device: no run
    of the plan finishes earlier."""
    latest, graph = 0.0, _graph(steps)
    for party in parties:
        unit, deps = party[device], party[2]
        finishes, taken, named = [0.0] * len(steps), {}, {}
        for i, after in graph:
            seconds, resource = prices[i], unit.resource_for(steps[i].op)
            start = 0.0
            for ref in after:
                if isinstance(ref, int):
                    done = finishes[ref]
                elif (done := named.get(ref)) is None:
                    done = named[ref] = _finished(_named(deps, ref))
                if done > start:
                    start = done
            spans = taken.setdefault(resource, [])
            if not idle:
                start = unit.clock.probe(resource, seconds, start, spans)
            finishes[i] = start + seconds
            if seconds > 0:  # a clock cuts no zero-length task out of a gap
                spans.append((start, finishes[i]))
        latest = max(latest, *finishes)
    return latest


def _finished(deps) -> float:
    """When ``deps`` have finished, as :meth:`~repro.simgpu.clock.SimClock.run`
    reads them (0 for none)."""
    ready = 0.0
    for dep in deps:
        if dep is not None and dep.finish > ready:
            ready = dep.finish
    return ready
