"""Profiling-guided adaptive GPU utilisation (paper Section 4.2).

The paper profiles the two-party computation, finds that the offline
``Z = U x V`` product and the online Eq. 8 GEMM dominate, and places
*only those* on the GPU — pushing small steps there loses to PCIe
overhead and kernel launch latency ("extra 4.5 percent performance
degradation", Section 4.2).

:class:`StepProfiler` reproduces the mechanism rather than hard-coding
the paper's conclusion: for every step it forms a CPU estimate and a GPU
estimate *including the transfers the placement would require*, picks
the faster device, and memoises the decision per (kind, shape) — the
adaptive part.  With adaptivity disabled it can also force either device
so the ablation benchmark can show the mechanism's value.

The recorded profile table doubles as the data behind Fig. 2 (time
breakdown) and Fig. 8 (GEMM share).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.simgpu.cost import CPUSpec, DeviceSpec

Placement = Literal["cpu", "gpu"]


@dataclass(frozen=True)
class PlacementDecision:
    """The profiler's verdict for one step signature."""

    kind: str
    key: tuple
    placement: Placement
    cpu_estimate_s: float
    gpu_estimate_s: float

    @property
    def advantage(self) -> float:
        """How much faster the chosen device is (ratio >= 1)."""
        slower = max(self.cpu_estimate_s, self.gpu_estimate_s)
        faster = min(self.cpu_estimate_s, self.gpu_estimate_s)
        return slower / max(faster, 1e-12)


@dataclass
class StepProfile:
    """Accumulated simulated time per step kind (the Fig. 2 breakdown)."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, kind: str, duration: float) -> None:
        self.seconds[kind] = self.seconds.get(kind, 0.0) + duration

    def fraction(self, kind: str) -> float:
        total = sum(self.seconds.values())
        return self.seconds.get(kind, 0.0) / total if total else 0.0


class StepProfiler:
    """Estimates and places steps; memoises per step signature."""

    def __init__(
        self,
        cpu_spec: CPUSpec,
        gpu_spec: DeviceSpec,
        *,
        mode: Literal["adaptive", "cpu_always", "gpu_always"] = "adaptive",
        tensor_core: bool = False,
        cpu_parallel: bool = True,
    ):
        self.cpu_spec = cpu_spec
        self.gpu_spec = gpu_spec
        self.mode = mode
        self.tensor_core = tensor_core
        self.cpu_parallel = cpu_parallel
        self.decisions: dict[tuple, PlacementDecision] = {}
        self.profile = StepProfile()

    # -- estimates -------------------------------------------------------------

    def _estimate_gemm(self, m: int, k: int, n: int, *, operands_on_gpu: bool) -> tuple[float, float]:
        """(cpu_seconds, gpu_seconds incl. required transfers)."""
        cpu = self.cpu_spec.gemm_seconds(m, k, n)
        gpu = self.gpu_spec.gemm_seconds(m, k, n, tensor_core=self.tensor_core)
        if not operands_on_gpu:
            in_bytes = 8 * (m * k + k * n)
            out_bytes = 8 * m * n
            gpu += self.gpu_spec.transfer_seconds(in_bytes) + self.gpu_spec.transfer_seconds(
                out_bytes
            )
        return cpu, gpu

    def _estimate_elementwise(self, nbytes: int, *, operands_on_gpu: bool) -> tuple[float, float]:
        cpu = self.cpu_spec.elementwise_seconds(nbytes, parallel=self.cpu_parallel)
        gpu = self.gpu_spec.elementwise_seconds(nbytes)
        if not operands_on_gpu:
            gpu += 2 * self.gpu_spec.transfer_seconds(nbytes)
        return cpu, gpu

    def _estimate_rng(self, nbytes: int) -> tuple[float, float]:
        cpu = self.cpu_spec.rng_seconds(nbytes, parallel=self.cpu_parallel)
        gpu = self.gpu_spec.curand_seconds(nbytes) + self.gpu_spec.transfer_seconds(nbytes)
        return cpu, gpu

    # -- placement -------------------------------------------------------------

    def place(
        self,
        kind: str,
        key: tuple,
        cpu_estimate: float,
        gpu_estimate: float,
    ) -> PlacementDecision:
        cache_key = (kind, key)
        cached = self.decisions.get(cache_key)
        if cached is not None:
            return cached
        if self.mode == "cpu_always":
            placement: Placement = "cpu"
        elif self.mode == "gpu_always":
            placement = "gpu"
        else:
            placement = "gpu" if gpu_estimate < cpu_estimate else "cpu"
        decision = PlacementDecision(
            kind=kind,
            key=key,
            placement=placement,
            cpu_estimate_s=cpu_estimate,
            gpu_estimate_s=gpu_estimate,
        )
        self.decisions[cache_key] = decision
        return decision

    def place_gemm(self, m: int, k: int, n: int, *, operands_on_gpu: bool = False) -> PlacementDecision:
        cpu, gpu = self._estimate_gemm(m, k, n, operands_on_gpu=operands_on_gpu)
        return self.place("gemm", (m, k, n, operands_on_gpu), cpu, gpu)

    def place_gemm_batched(self, batch: int, m: int, k: int, n: int) -> PlacementDecision:
        """Placement for a fused stack of ``batch`` (m,k)x(k,n) products.

        The CPU runs the stack as ``batch`` sequential GEMMs; the GPU
        pays one strided-batched launch plus the stacked transfers —
        batching shifts the break-even point toward the GPU.
        """
        cpu = batch * self.cpu_spec.gemm_seconds(m, k, n)
        gpu = self.gpu_spec.batched_gemm_seconds(batch, m, k, n, tensor_core=self.tensor_core)
        in_bytes = 8 * batch * (m * k + k * n)
        out_bytes = 8 * batch * m * n
        gpu += self.gpu_spec.transfer_seconds(in_bytes) + self.gpu_spec.transfer_seconds(out_bytes)
        return self.place("gemm_batched", (batch, m, k, n), cpu, gpu)

    def place_elementwise(self, nbytes: int, *, operands_on_gpu: bool = False) -> PlacementDecision:
        cpu, gpu = self._estimate_elementwise(nbytes, operands_on_gpu=operands_on_gpu)
        return self.place("elementwise", (nbytes, operands_on_gpu), cpu, gpu)

    def place_rng(self, nbytes: int) -> PlacementDecision:
        cpu, gpu = self._estimate_rng(nbytes)
        return self.place("rng", (nbytes,), cpu, gpu)

    # -- bookkeeping ------------------------------------------------------------

    def record(self, kind: str, duration: float) -> None:
        """Accumulate actual simulated duration under a step kind."""
        self.profile.add(kind, duration)
