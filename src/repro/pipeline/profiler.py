"""Profiling-guided adaptive GPU utilisation (paper Section 4.2).

The paper profiles the two-party computation, finds that the offline
``Z = U x V`` product and the online Eq. 8 GEMM dominate, and places
*only those* on the GPU — pushing small steps there loses to PCIe
overhead and kernel launch latency ("extra 4.5 percent performance
degradation", Section 4.2).

:class:`StepProfiler` reproduces the mechanism rather than hard-coding
the paper's conclusion.  A call site names the *plan* it will run, and
the profiler prices the steps each device would take under that plan
with one cost function (:meth:`StepProfiler.seconds`), then picks the
cheaper device:

* ``beaver2pc`` — one server's Eq. 8 product ``(m,k) x (k,n)``.  GPU:
  the uploads of the public slots ``E``, ``F``, ``Z`` the server's
  device table does not hold, the ``D`` kernel unless its
  ``("lead", uid)`` row is resident, the two GEMMs ``D @ F`` and
  ``E @ B_i``, the fused ``C`` add and ``C``'s download — what
  :func:`~repro.pipeline.scheduler.schedule_secure_gemm` places.  The
  server's own ``A_i``/``B_i`` are not charged: they cross PCIe while
  ``E``/``F`` are on the wire.  CPU: the fused ``(m, 2k, n)`` GEMM
  (``cpu_gemm``) and the ``+Z`` add.
* ``rep3`` — the cross-term product, fused to ``(m, 2k, n)``: two
  uploads (``h2d:L``, ``h2d:R``), one GEMM and one download against the
  same GEMM on the CPU (``cpu_gemm``).
* ``dealer`` — the client's ``Z = U x V``: two uploads (``h2d:U``,
  ``h2d:V``), one GEMM (``U@V``), one download (``d2h:Z``) against the
  CPU GEMM (``U@V``).
* ``beaver2pc.mul`` / ``rep3.mul`` — a Hadamard product: four uploads,
  one kernel and one download against the kernel on the CPU.
* ``rng`` — the client's cuRAND generation and download against its
  MT19937.
* CPU-only plans (:data:`_CPU_PLANS`) — every other cost the protocols
  and layers charge; no mode places them on the GPU.

Plans are data: :meth:`StepProfiler.run_plan` places exactly a plan's
steps on the device the profiler picks, each priced by that party's own
device with :func:`~repro.simgpu.cost.step_seconds`, the function
:meth:`StepProfiler.seconds` prices with.  It runs every plan, products
included; the call site computes the values.  The one exception is a
GPU-placed ``beaver2pc`` product: pipeline 1 gives each Fig. 5 slot its
own dependencies, which a sequence of steps cannot say, so
:func:`~repro.pipeline.scheduler.schedule_secure_gemm` places those
steps by hand.

A decision is memoised per (plan, shape, resident slots) — the adaptive
part — so a cold and a warm call of one product are separate decisions.
The price is static: the steps' durations summed, not a dry run on the
clock, so it sees neither the exchange a transfer hides behind nor a
queue on a busy stream.  With adaptivity disabled the profiler forces
either device, so the ablation benchmark can show the mechanism's value.
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

#: The client's plans that have GPU steps, priced at ``client_parallel``.
_CLIENT_PLANS = frozenset({"dealer", "rng"})


@dataclass(frozen=True)
class PlacementDecision:
    """The profiler's verdict for one (plan, shape, resident slots)."""

    plan: str
    shape: tuple
    resident: tuple[str, ...]
    placement: Placement
    cpu_estimate_s: float
    gpu_estimate_s: float


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
    names the ``beaver2pc`` slots (``D``, ``E``, ``F``, ``Z``) that no
    step places.
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
        lead, right = 8 * batch * m * k, 8 * batch * k * n
        gpu = [
            Step("h2d", (nbytes,))
            for slot, nbytes in (("E", lead), ("F", right), ("Z", out))
            if slot not in resident
        ]
        if "D" not in resident:
            gpu.append(Step("elementwise", (3 * lead,)))  # D = A_i - E (server 1's)
        gpu += [Step("gemm", shape)] * 2 + [Step("elementwise", (4 * out,)), Step("d2h", (out,))]
        fused = Step("gemm", (batch, m, 2 * k, n), "cpu_gemm")
        return (fused, Step("elementwise", (3 * out,), "+Z")), tuple(gpu)
    if plan not in _PRODUCTS:
        raise ValueError(f"unknown plan {plan!r}")
    if plan == "rep3":
        k *= 2  # both cross terms in one GEMM
    left, right, kernel, download, cpu_kernel = _PRODUCTS[plan]
    gpu = (
        Step("h2d", (8 * batch * m * k,), left),
        Step("h2d", (8 * batch * k * n,), right),
        Step("gemm", (batch, m, k, n), kernel),
        Step("d2h", (out,), download),
    )
    return (Step("gemm", (batch, m, k, n), cpu_kernel),), gpu


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
        self.decisions: dict[tuple, PlacementDecision] = {}

    # -- the cost function ------------------------------------------------------

    def seconds(
        self, device: Placement, steps: tuple[Step, ...], *, parallel: bool | None = None
    ) -> float:
        """Simulated seconds of ``steps`` run back to back on ``device``; a
        CPU runs at ``parallel`` (default: the servers' ``cpu_parallel``)."""
        spec = self.gpu_spec if device == "gpu" else self.cpu_spec
        parallel = self.cpu_parallel if parallel is None else parallel
        return sum(
            step_seconds(spec, op, size, parallel=parallel, tensor_core=self.tensor_core)
            for op, size, _name in steps
        )

    # -- placement -------------------------------------------------------------

    def decide(self, plan: str, shape: tuple, resident: tuple[str, ...] = ()) -> PlacementDecision:
        """Placement for ``plan`` at ``shape`` with ``resident`` slots held."""
        key = (plan, shape, resident)
        cached = self.decisions.get(key)
        if cached is not None:
            return cached
        cpu_steps, gpu_steps = plan_steps(plan, shape, resident)
        parallel = self.client_parallel if plan in _CLIENT_PLANS else self.cpu_parallel
        cpu = self.seconds("cpu", cpu_steps, parallel=parallel)
        gpu = self.seconds("gpu", gpu_steps)
        if not gpu_steps or self.mode == "cpu_always":
            placement: Placement = "cpu"
        elif self.mode == "gpu_always":
            placement = "gpu"
        else:
            placement = "gpu" if gpu < cpu else "cpu"
        decision = PlacementDecision(plan, shape, resident, placement, cpu, gpu)
        self.decisions[key] = decision
        return decision

    def place_gemm(
        self,
        batch: int,
        m: int,
        k: int,
        n: int,
        *,
        plan: str = "dealer",
        resident: tuple[str, ...] = (),
    ) -> PlacementDecision:
        """Placement for ``batch`` stacked ``(m,k) x (k,n)`` products (1
        for a matrix) run as ``plan``."""
        return self.decide(plan, (batch, m, k, n), resident)

    # -- the executor ------------------------------------------------------------

    def run_plan(self, cpu, gpu, plan: str, shape: tuple, *, deps, label: str) -> list:
        """Place ``plan``'s steps at ``shape`` on one party's ``cpu`` or
        ``gpu`` (None where it has none), whichever the profiler picks,
        and return their tasks in step order.

        Each device prices a step itself, at its own spec and parallel
        flag.  Uploads start together on ``deps``, the step after them
        waits for all of them, and every other step waits for the one
        before it.
        """
        cpu_steps, gpu_steps = plan_steps(plan, shape)
        if gpu is not None and self.decide(plan, shape).placement == "gpu":
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
