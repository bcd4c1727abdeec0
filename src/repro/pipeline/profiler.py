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
  ``E``/``F`` are on the wire.  CPU: the fused ``(m, 2k, n)`` GEMM and
  the ``+Z`` add.
* ``rep3`` — the cross-term product, fused to ``(m, 2k, n)``: two
  uploads, one GEMM and one download against the same GEMM on the CPU.
* ``dealer`` — the client's ``Z = U x V``: two uploads, one GEMM, one
  download against the CPU GEMM.
* ``beaver2pc.mul`` / ``rep3.mul`` — a Hadamard product: four uploads,
  one kernel and one download against the kernel on the CPU.
* ``rng`` — the client's cuRAND generation and download against its
  MT19937, at the client's parallel flag.

A decision is memoised per (plan, shape, resident slots) — the adaptive
part — so a cold and a warm call of one product are separate decisions.
The price is static: the steps' durations summed, not a dry run on the
clock, so it sees neither the exchange a transfer hides behind nor a
queue on a busy stream.  With adaptivity disabled the profiler forces
either device, so the ablation benchmark can show the mechanism's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.simgpu.cost import CPUSpec, DeviceSpec

Placement = Literal["cpu", "gpu"]

#: One step of a plan: ``(op, *size)`` with ``op`` in ``h2d``, ``d2h``,
#: ``elementwise``, ``rng`` (sized in bytes) or ``gemm`` (``batch, m, k, n``).
Step = tuple

#: Bytes a Hadamard product's kernel touches per operand byte, per backend.
_MUL_TRAFFIC = {"beaver2pc.mul": 5, "rep3.mul": 4}


@dataclass(frozen=True)
class PlacementDecision:
    """The profiler's verdict for one (plan, shape, resident slots)."""

    plan: str
    shape: tuple
    resident: tuple[str, ...]
    placement: Placement
    cpu_estimate_s: float
    gpu_estimate_s: float


def plan_steps(
    plan: str, shape: tuple, resident: tuple[str, ...] = ()
) -> tuple[list[Step], list[Step]]:
    """``(cpu steps, gpu steps)`` of ``plan`` at ``shape``.

    A product's shape is ``(batch, m, k, n)``: ``batch`` stacked
    ``(m,k) x (k,n)`` products (1 for a matrix).  A Hadamard product's
    and an RNG draw's is ``(nbytes,)`` of one operand.  ``resident``
    names the ``beaver2pc`` slots (``D``, ``E``, ``F``, ``Z``) that no
    step places.
    """
    if plan in _MUL_TRAFFIC:
        (nbytes,) = shape
        kernel = ("elementwise", _MUL_TRAFFIC[plan] * nbytes)
        return [kernel], [("h2d", nbytes)] * 4 + [kernel, ("d2h", nbytes)]
    if plan == "rng":
        (nbytes,) = shape
        return [("rng", nbytes)], [("rng", nbytes), ("d2h", nbytes)]
    batch, m, k, n = shape
    out = 8 * batch * m * n
    if plan == "beaver2pc":
        lead, right = 8 * batch * m * k, 8 * batch * k * n
        gpu = [
            ("h2d", nbytes)
            for slot, nbytes in (("E", lead), ("F", right), ("Z", out))
            if slot not in resident
        ]
        if "D" not in resident:
            gpu.append(("elementwise", 3 * lead))  # D = A_i - E (server 1's)
        gpu += [("gemm", batch, m, k, n)] * 2 + [("elementwise", 4 * out), ("d2h", out)]
        return [("gemm", batch, m, 2 * k, n), ("elementwise", 3 * out)], gpu
    if plan == "rep3":
        k *= 2  # both cross terms in one GEMM
    elif plan != "dealer":
        raise ValueError(f"unknown plan {plan!r}")
    gemm = ("gemm", batch, m, k, n)
    return [gemm], [("h2d", 8 * batch * m * k), ("h2d", 8 * batch * k * n), gemm, ("d2h", out)]


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

    def seconds(self, device: Placement, steps: list[Step]) -> float:
        """Simulated seconds of ``steps`` run back to back on ``device``."""
        return sum(self._step_seconds(device, *step) for step in steps)

    def _step_seconds(self, device: Placement, op: str, *size) -> float:
        cpu, gpu = self.cpu_spec, self.gpu_spec
        if op == "gemm":
            batch, m, k, n = size
            if device == "cpu":
                return cpu.gemm_seconds(m, k, n, batch=batch)
            return gpu.gemm_seconds(m, k, n, batch=batch, tensor_core=self.tensor_core)
        (nbytes,) = size
        if device == "cpu":
            if op == "rng":  # only the client draws through the profiler
                return cpu.rng_seconds(nbytes, parallel=self.client_parallel)
            return cpu.elementwise_seconds(nbytes, parallel=self.cpu_parallel)
        if op == "elementwise":
            return gpu.elementwise_seconds(nbytes)
        if op == "rng":
            return gpu.curand_seconds(nbytes)
        return gpu.transfer_seconds(nbytes)  # h2d, d2h

    # -- placement -------------------------------------------------------------

    def _decide(self, plan: str, shape: tuple, resident: tuple[str, ...] = ()) -> PlacementDecision:
        key = (plan, shape, resident)
        cached = self.decisions.get(key)
        if cached is not None:
            return cached
        cpu_steps, gpu_steps = plan_steps(plan, shape, resident)
        cpu, gpu = self.seconds("cpu", cpu_steps), self.seconds("gpu", gpu_steps)
        if self.mode == "cpu_always":
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
        return self._decide(plan, (batch, m, k, n), resident)

    def place_elementwise(self, nbytes: int, *, plan: str = "beaver2pc") -> PlacementDecision:
        """Placement for a Hadamard product of two ``nbytes`` operands."""
        return self._decide(f"{plan}.mul", (nbytes,))

    def place_rng(self, nbytes: int) -> PlacementDecision:
        return self._decide("rng", (nbytes,))
