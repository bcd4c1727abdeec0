"""Simulated compute devices: :class:`SimGPU` and :class:`SimCPU`.

Each device owns resources on a shared :class:`SimClock`:

* a GPU contributes ``<name>.s<k>`` compute streams plus ``<name>.h2d``
  and ``<name>.d2h`` DMA engines (PCIe is full-duplex, so the two
  directions are independent resources, as on real hardware);
* a CPU contributes a single ``<name>.cpu`` timeline (the paper's
  host-side work is modelled at whole-socket granularity, with Section
  5.1's parallelism folded into the rate, not into extra resources).

Every method *really computes* its result with NumPy and *also* returns
the :class:`Task` carrying its simulated interval, so callers can build
dependency graphs (pipelines) out of the return values.

Kernel time lands in the telemetry registry as histograms
(``simgpu.kernel_seconds{device,kind}`` / ``simcpu.seconds{device,kind}``)
together with PCIe byte counters and a queue-wait histogram measuring how
long each task sat ready behind a busy stream; the historical counters
(``gemm_count``, ``h2d_bytes``, ...) are thin views over those series.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.ring import ring_add, ring_matmul, ring_matmul_batched, ring_mul, ring_sub
from repro.simgpu.clock import SimClock, Task
from repro.simgpu.cost import CPUSpec, DeviceSpec
from repro.simgpu.memory import DeviceBuffer, MemoryPool
from repro.telemetry.registry import MetricRegistry, SeriesCache
from repro.util.errors import DeviceError


def _queue_wait(task: Task, deps) -> float:
    """Seconds the task sat ready (all deps done) before its resource freed up."""
    ready = max((d.finish for d in deps), default=0.0)
    return max(0.0, task.start - ready)


def _op(matrix: np.ndarray, trans: bool) -> np.ndarray:
    """cuBLAS ``op(A)``: the matrix (each matrix of a stack), or its transpose."""
    return np.swapaxes(matrix, -1, -2) if trans else matrix


class SimGPU:
    """One simulated GPU attached to a shared clock."""

    def __init__(
        self,
        clock: SimClock,
        spec: DeviceSpec,
        name: str = "gpu0",
        *,
        n_streams: int = 2,
        tensor_core: bool = False,
        telemetry=None,
    ):
        self.clock = clock
        self.spec = spec
        self.name = name
        self.n_streams = int(n_streams)
        self.tensor_core = bool(tensor_core)
        self.pool = MemoryPool(spec.memory_bytes, name)
        for s in range(self.n_streams):
            clock.add_resource(self.stream(s))
        clock.add_resource(self.h2d_engine)
        clock.add_resource(self.d2h_engine)
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
        self._curand_initialised = False

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
        return f"{self.name}.s{k}"

    @property
    def h2d_engine(self) -> str:
        return f"{self.name}.h2d"

    @property
    def d2h_engine(self) -> str:
        return f"{self.name}.d2h"

    # -- transfers -------------------------------------------------------------

    def h2d(self, array: np.ndarray, deps=(), label: str = "h2d") -> tuple[DeviceBuffer, Task]:
        """Copy a host array into device memory over PCIe."""
        buf = self.pool.allocate(np.ascontiguousarray(array))
        t = self.clock.run(
            self.h2d_engine, self.spec.transfer_seconds(buf.nbytes), deps=deps, label=label
        )
        self._h2d.inc(buf.nbytes)
        self._observe("h2d", t, deps)
        return buf, t

    def d2h(self, buf: DeviceBuffer, deps=(), label: str = "d2h") -> tuple[np.ndarray, Task]:
        """Copy a device buffer back to the host over PCIe."""
        data = buf.require_live()
        t = self.clock.run(
            self.d2h_engine, self.spec.transfer_seconds(data.nbytes), deps=deps, label=label
        )
        self._d2h.inc(data.nbytes)
        self._observe("d2h", t, deps)
        return data, t

    def free(self, buf: DeviceBuffer) -> None:
        self.pool.free(buf)

    # -- kernels -----------------------------------------------------------------

    def _charge_gemm(self, m: int, k: int, n: int, stream: int, deps, label: str) -> Task:
        dur = self.spec.gemm_seconds(m, k, n, tensor_core=self.tensor_core)
        self._gemm_count.inc(1)
        self._gemm_flops.inc(2.0 * m * k * n)
        t = self.clock.run(self.stream(stream), dur, deps=deps, label=label)
        return self._observe("gemm", t, deps)

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

        ``trans_a`` / ``trans_b`` are cuBLAS's ``op(A)`` flags: the
        buffer is read transposed where it lies, so ``X^T d`` and
        ``d W^T`` multiply the buffers ``X W`` uploaded and no
        transposed copy is ever made or transferred.

        Numerically exact via the limb decomposition; *timed* as the
        paper's cublasSgemmEx float GEMM of the same (m,k,n) whatever
        the flags, because ParSecureML performs its share arithmetic in
        floating point on the GPU (Section 5.2) — see DESIGN.md for the
        fidelity note.
        """
        av, bv = _op(a.require_live(), trans_a), _op(b.require_live(), trans_b)
        out = self.pool.allocate(ring_matmul(av, bv))
        t = self._charge_gemm(av.shape[0], av.shape[1], bv.shape[1], stream, deps, label)
        return out, t

    def gemm_ring_batched(
        self,
        a: DeviceBuffer,
        b: DeviceBuffer,
        deps=(),
        *,
        stream: int = 0,
        label: str = "gemm_ring_batched",
        trans_a: bool = False,
        trans_b: bool = False,
    ) -> tuple[DeviceBuffer, Task]:
        """Stacked ring GEMM: one launch for a (B,m,k) x (B,k,n) batch.

        Timed as one strided-batched GEMM (the launch overhead amortises
        over the stack; see :meth:`DeviceSpec.batched_gemm_seconds`) —
        the kernel a stacked triplet's dealer product ``Z = U x V`` runs
        as.  ``trans_a`` / ``trans_b`` read each sample of a stack
        transposed, as in :meth:`gemm_ring`.
        """
        av, bv = _op(a.require_live(), trans_a), _op(b.require_live(), trans_b)
        batch, m, k = av.shape
        n = bv.shape[2]
        out = self.pool.allocate(ring_matmul_batched(av, bv))
        dur = self.spec.batched_gemm_seconds(batch, m, k, n, tensor_core=self.tensor_core)
        self._gemm_count.inc(1)
        self._gemm_flops.inc(2.0 * batch * m * k * n)
        t = self.clock.run(self.stream(stream), dur, deps=deps, label=label)
        return out, self._observe("gemm", t, deps)

    def gemm_float(
        self,
        a: DeviceBuffer,
        b: DeviceBuffer,
        deps=(),
        *,
        stream: int = 0,
        label: str = "gemm",
        fp16_inputs: bool | None = None,
    ) -> tuple[DeviceBuffer, Task]:
        """Float GEMM for the non-secure baselines.

        When the device is in tensor-core mode (or ``fp16_inputs`` is
        forced) the inputs are *really* rounded to FP16 before the
        product — the accuracy consequence of cublasSgemmEx that the
        paper reports as negligible, which tests verify.
        """
        av, bv = a.require_live(), b.require_live()
        use_fp16 = self.tensor_core if fp16_inputs is None else fp16_inputs
        if use_fp16:
            prod = av.astype(np.float16).astype(np.float32) @ bv.astype(np.float16).astype(
                np.float32
            )
        else:
            prod = av.astype(np.float32) @ bv.astype(np.float32)
        out = self.pool.allocate(prod)
        t = self._charge_gemm(av.shape[0], av.shape[1], bv.shape[1], stream, deps, label)
        return out, t

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
        t = self.clock.run(
            self.stream(stream), self.spec.elementwise_seconds(nbytes), deps=deps, label=label
        )
        self._observe("elementwise", t, deps)
        return out, t

    def ring_add(self, a: DeviceBuffer, b: DeviceBuffer, deps=(), **kw):
        return self.elementwise(ring_add, [a, b], deps=deps, label=kw.pop("label", "ring_add"), **kw)

    def ring_sub(self, a: DeviceBuffer, b: DeviceBuffer, deps=(), **kw):
        return self.elementwise(ring_sub, [a, b], deps=deps, label=kw.pop("label", "ring_sub"), **kw)

    def ring_mul(self, a: DeviceBuffer, b: DeviceBuffer, deps=(), **kw):
        return self.elementwise(ring_mul, [a, b], deps=deps, label=kw.pop("label", "ring_mul"), **kw)

    def curand_uniform_ring(
        self, shape, rng: np.random.Generator, deps=(), *, stream: int = 0
    ) -> tuple[DeviceBuffer, Task]:
        """On-device uniform ring generation (cuRAND model, Fig. 7).

        The first call pays the generator warm-up cost, as cuRAND does.
        """
        data = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        out = self.pool.allocate(data)
        dur = self.spec.curand_seconds(data.nbytes, include_setup=not self._curand_initialised)
        self._curand_initialised = True
        t = self.clock.run(self.stream(stream), dur, deps=deps, label="curand")
        self._observe("curand", t, deps)
        return out, t


class SimCPU:
    """The host CPU timeline of one node."""

    def __init__(
        self,
        clock: SimClock,
        spec: CPUSpec,
        name: str = "cpu0",
        *,
        parallel_enabled: bool = True,
        telemetry=None,
    ):
        self.clock = clock
        self.spec = spec
        self.name = name
        self.parallel_enabled = bool(parallel_enabled)
        clock.add_resource(self.resource)
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        seconds = registry.histogram("simcpu.seconds", "host-side time by kind")
        self._seconds = SeriesCache(lambda kind: seconds.labels(device=name, kind=kind))
        self._rng_bytes = registry.counter(
            "simcpu.rng_bytes", "bytes of ring randomness drawn"
        ).labels(device=name)

    @property
    def rng_bytes(self) -> int:
        return int(self._rng_bytes.value())

    @property
    def resource(self) -> str:
        return f"{self.name}.cpu"

    def run(self, duration: float, deps=(), label: str = "cpu", *, kind: str = "run") -> Task:
        """Charge raw seconds to the CPU timeline."""
        t = self.clock.run(self.resource, duration, deps=deps, label=label)
        self._seconds[kind].observe(t.duration)
        return t

    def gemm_ring(self, a: np.ndarray, b: np.ndarray, deps=(), label="cpu_gemm"):
        out = ring_matmul(a, b)
        t = self.run(
            self.spec.gemm_seconds(a.shape[0], a.shape[1], b.shape[1]), deps, label, kind="gemm"
        )
        return out, t

    def gemm_ring_batched(self, a: np.ndarray, b: np.ndarray, deps=(), label="cpu_gemm"):
        """Stacked ring GEMM, timed as ``B`` sequential (m,k)x(k,n) products."""
        out = ring_matmul_batched(a, b)
        batch, m, k = a.shape
        t = self.run(
            batch * self.spec.gemm_seconds(m, k, b.shape[2]), deps, label, kind="gemm"
        )
        return out, t

    def gemm_float(self, a: np.ndarray, b: np.ndarray, deps=(), label="cpu_gemm"):
        out = a @ b
        t = self.run(
            self.spec.gemm_seconds(a.shape[0], a.shape[1], b.shape[1]), deps, label, kind="gemm"
        )
        return out, t

    def elementwise(self, fn, arrays, deps=(), label="cpu_elementwise"):
        result = fn(*arrays)
        nbytes = sum(a.nbytes for a in arrays) + result.nbytes
        t = self.run(
            self.spec.elementwise_seconds(nbytes, parallel=self.parallel_enabled),
            deps,
            label,
            kind="elementwise",
        )
        return result, t

    def rng_uniform_ring(self, shape, rng: np.random.Generator, deps=(), label="mt19937"):
        data = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        self._rng_bytes.inc(data.nbytes)
        t = self.run(
            self.spec.rng_seconds(data.nbytes, parallel=self.parallel_enabled),
            deps,
            label,
            kind="rng",
        )
        return data, t
