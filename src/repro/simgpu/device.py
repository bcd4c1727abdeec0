"""Simulated compute devices: :class:`SimGPU` and :class:`SimCPU`.

Each device owns resources on a shared :class:`SimClock`:

* a GPU contributes ``<name>.s<k>`` compute streams plus ``<name>.h2d``
  and ``<name>.d2h`` DMA engines (PCIe is full-duplex, so the two
  directions are independent resources, as on real hardware);
* a CPU contributes a single ``<name>.cpu`` timeline (the paper's
  host-side work is modelled at whole-socket granularity, with Section
  5.1's parallelism folded into the rate, not into extra resources).

``run_step`` charges one plan step
(:meth:`~repro.pipeline.profiler.StepProfiler.run_plan` places whole
plans with it, the call site computing the values).  The buffer
methods (``h2d``, ``d2h``, ``gemm_ring``, ``elementwise``) *really
compute* their result with NumPy and *also* return the :class:`Task`
carrying its simulated interval; no plan runs them.

Kernel time lands in the telemetry registry as histograms
(``simgpu.kernel_seconds{device,kind}`` / ``simcpu.seconds{device,kind}``)
together with PCIe byte counters and a queue-wait histogram measuring how
long each task sat ready behind a busy stream; the historical counters
(``gemm_count``, ``h2d_bytes``, ...) are thin views over those series.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.ring import ring_matmul
from repro.simgpu.clock import SimClock, Task
from repro.simgpu.cost import CPUSpec, DeviceSpec, step_seconds
from repro.simgpu.memory import DeviceBuffer, MemoryPool
from repro.telemetry.registry import MetricRegistry, SeriesCache
from repro.util.errors import DeviceError
from repro.util.validation import gemm_dims


def _queue_wait(task: Task, deps) -> float:
    """Seconds the task sat ready (all deps done) before its resource freed up."""
    ready = max((d.finish for d in deps), default=0.0)
    return max(0.0, task.start - ready)


class SimGPU:
    """One simulated GPU attached to a shared clock."""

    def __init__(
        self,
        clock: SimClock,
        spec: DeviceSpec,
        name: str = "gpu0",
        *,
        n_streams: int = 2,
        telemetry=None,
    ):
        self.clock = clock
        self.spec = spec
        self.name = name
        self.n_streams = int(n_streams)
        self.pool = MemoryPool(spec.memory_bytes, name)
        self._streams = [f"{name}.s{k}" for k in range(self.n_streams)]
        self.h2d_engine = f"{name}.h2d"
        self.d2h_engine = f"{name}.d2h"
        for resource in (*self._streams, self.h2d_engine, self.d2h_engine):
            clock.add_resource(resource)
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        kernel_seconds = registry.histogram(
            "simgpu.kernel_seconds", "kernel time by device and kind"
        )
        self._kernel_seconds = SeriesCache(
            lambda kind: kernel_seconds.labels(device=name, kind=kind)
        )
        self._queue_wait_seconds = registry.histogram(
            "simgpu.queue_wait_seconds", "time ready work waited behind busy streams"
        ).labels(device=name)
        self._h2d = registry.counter(
            "simgpu.h2d_bytes", "host-to-device PCIe bytes"
        ).labels(device=name)
        self._d2h = registry.counter(
            "simgpu.d2h_bytes", "device-to-host PCIe bytes"
        ).labels(device=name)
        self._gemm_count = registry.counter(
            "simgpu.gemm_count", "GEMM kernel launches"
        ).labels(device=name)
        self._gemm_flops = registry.counter(
            "simgpu.gemm_flops", "GEMM floating-point ops"
        ).labels(device=name)

    # -- thin views over the registry (historical counter surface) -------------

    @property
    def gemm_count(self) -> int:
        return int(self._gemm_count.value())

    @property
    def gemm_flops(self) -> float:
        return self._gemm_flops.value()

    @property
    def h2d_bytes(self) -> int:
        return int(self._h2d.value())

    @property
    def d2h_bytes(self) -> int:
        return int(self._d2h.value())

    def _observe(self, kind: str, task: Task, deps) -> Task:
        self._kernel_seconds[kind].observe(task.duration)
        self._queue_wait_seconds.observe(_queue_wait(task, deps))
        return task

    def stream(self, k: int = 0) -> str:
        if not 0 <= k < self.n_streams:
            raise DeviceError(f"{self.name}: stream {k} out of range (have {self.n_streams})")
        return self._streams[k]

    # -- transfers -------------------------------------------------------------

    def h2d(self, array: np.ndarray, deps=(), label: str = "h2d") -> tuple[DeviceBuffer, Task]:
        """Copy a host array into device memory over PCIe."""
        buf = self.pool.allocate(np.ascontiguousarray(array))
        return buf, self.run_step("h2d", (buf.nbytes,), deps, label)

    def d2h(self, buf: DeviceBuffer, deps=(), label: str = "d2h") -> tuple[np.ndarray, Task]:
        """Copy a device buffer back to the host over PCIe."""
        data = buf.require_live()
        return data, self.run_step("d2h", (data.nbytes,), deps, label)

    def run_step(self, op: str, size: tuple, deps=(), label: str = "step", *, stream=0) -> Task:
        """Charge one step at this GPU's spec
        (:func:`~repro.simgpu.cost.step_seconds`): a PCIe copy on its
        engine, counted in ``h2d_bytes``/``d2h_bytes``; anything else on
        ``stream``, a GEMM counted in ``gemm_count``/``gemm_flops``."""
        if op == "h2d":
            self._h2d.inc(size[0])
        elif op == "d2h":
            self._d2h.inc(size[0])
        elif op == "gemm":
            batch, m, k, n = size
            self._gemm_count.inc(1)
            self._gemm_flops.inc(2.0 * batch * m * k * n)
        seconds = step_seconds(self.spec, op, size)
        t = self.clock.run(self.resource_for(op, stream), seconds, deps=deps, label=label)
        return self._observe(op, t, deps)

    def resource_for(self, op: str, stream: int = 0) -> str:
        """The resource a step ``op`` runs on: a PCIe copy on its engine,
        anything else on ``stream``."""
        if op == "h2d":
            return self.h2d_engine
        if op == "d2h":
            return self.d2h_engine
        return self.stream(stream)

    def free(self, buf: DeviceBuffer) -> None:
        self.pool.free(buf)

    # -- kernels -----------------------------------------------------------------

    def gemm_ring(
        self,
        a: DeviceBuffer,
        b: DeviceBuffer,
        deps=(),
        *,
        stream: int = 0,
        label: str = "gemm_ring",
        trans_a: bool = False,
        trans_b: bool = False,
    ) -> tuple[DeviceBuffer, Task]:
        """Ring GEMM (Z_{2^64}) on device buffers: ``op(a) @ op(b)``.

        Two matrices, or two equal-depth stacks ``(B,m,k) x (B,k,n)``
        run as one strided-batched launch.  ``trans_a`` / ``trans_b``
        are cuBLAS's ``op(A)`` flags: the buffer (each matrix of a
        stack) is read transposed where it lies, never copied.

        Numerically exact via the limb decomposition; *timed* as the
        paper's cublasSgemmEx float GEMM of the same (m,k,n) whatever
        the flags, because ParSecureML performs its share arithmetic in
        floating point on the GPU (Section 5.2) — see DESIGN.md for the
        fidelity note.
        """
        # cuBLAS op(A): the matrix (each matrix of a stack), or its transpose
        av, bv = a.require_live(), b.require_live()
        av = np.swapaxes(av, -1, -2) if trans_a else av
        bv = np.swapaxes(bv, -1, -2) if trans_b else bv
        out = self.pool.allocate(ring_matmul(av, bv))
        task = self.run_step("gemm", gemm_dims(av.shape, bv.shape), deps, label, stream=stream)
        return out, task

    def elementwise(
        self,
        fn,
        bufs: list[DeviceBuffer],
        deps=(),
        *,
        stream: int = 0,
        label: str = "elementwise",
    ) -> tuple[DeviceBuffer, Task]:
        """Apply ``fn(*arrays) -> array`` as a bandwidth-bound kernel."""
        arrays = [b.require_live() for b in bufs]
        result = fn(*arrays)
        out = self.pool.allocate(result)
        nbytes = sum(a.nbytes for a in arrays) + result.nbytes
        return out, self.run_step("elementwise", (nbytes,), deps, label, stream=stream)


class SimCPU:
    """The host CPU timeline of one node."""

    def __init__(
        self,
        clock: SimClock,
        spec: CPUSpec,
        name: str = "cpu0",
        *,
        telemetry=None,
    ):
        self.clock = clock
        self.spec = spec
        self.name = name
        self.resource = f"{name}.cpu"  # its one timeline
        clock.add_resource(self.resource)
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        seconds = registry.histogram("simcpu.seconds", "host-side time by kind")
        self._seconds = SeriesCache(lambda kind: seconds.labels(device=name, kind=kind))

    def run(self, duration: float, deps=(), label: str = "cpu", *, kind: str = "run") -> Task:
        """Charge raw seconds to the CPU timeline."""
        t = self.clock.run(self.resource, duration, deps=deps, label=label)
        self._seconds[kind].observe(t.duration)
        return t

    def resource_for(self, op: str) -> str:
        """The resource a step ``op`` runs on: this CPU's one timeline."""
        return self.resource

    def run_step(self, op: str, size: tuple, deps=(), label: str = "cpu") -> Task:
        """One plan step, priced at this CPU's spec
        (:func:`~repro.simgpu.cost.step_seconds`)."""
        seconds = step_seconds(self.spec, op, size)
        return self.run(seconds, deps, label, kind=op)

    def elementwise(self, fn, arrays, deps=(), label="cpu_elementwise"):
        result = fn(*arrays)
        nbytes = sum(a.nbytes for a in arrays) + result.nbytes
        return result, self.run_step("elementwise", (nbytes,), deps, label)
