"""Outside-in tracer: spans around the calls into each layer of ``repro``.

The benchmark may not edit ``src/``, so the spans are recorded from
here: every target below is a dotted public name that is resolved at
run time and rebound to a timing wrapper — a module-level function in
every ``repro`` module that imported it, a method on the class that
defines it and on every subclass that overrides it.  A name that no
longer resolves is skipped and listed in :attr:`Tracer.unresolved`;
it is never an error, so deleting or moving a module cannot break the
benchmark, it only turns that target's metrics to null.

A span is ``(target index, start, end, parent span)``; spans stay in
memory until the run ends.  A span's self time is its duration minus
the time its child spans cover, so the groups below partition a traced
unit without overlap, and what no span covers is ``host.untraced_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced name: ``module:qualname``, in metric group ``group``.

    ``counted`` spans add to ``<group>.calls`` (helpers of a group are
    timed but not counted); ``meter`` names an entry of :data:`METERS`
    that tallies work from the call's arguments; ``context_manager``
    marks a factory whose returned context manager is timed on enter
    and exit rather than on creation alone.
    """

    path: str
    group: str
    counted: bool = True
    meter: str | None = None
    context_manager: bool = False


def _meter_matmul(tally, args, result):
    a, b = args[0], args[1]
    tally["fixedpoint.matmul.macs"] += result.size * a.shape[-1]
    tally["fixedpoint.matmul.operand_bytes"] += 8 * (a.size + b.size + result.size)


def _meter_compare(tally, args, result):
    tally["mpc.compare.elements"] += args[0].size


METERS = {"matmul": _meter_matmul, "compare": _meter_compare}


_t = Target


#: The fixed target list.  The group's first component is the layer
#: (the package under ``src/repro`` the work belongs to).
TARGETS: tuple[Target, ...] = (
    # -- fixedpoint ---------------------------------------------------------
    _t("repro.fixedpoint.ring:ring_matmul", "fixedpoint.matmul", meter="matmul"),
    _t("repro.fixedpoint.ring:ring_matmul_batched", "fixedpoint.matmul", meter="matmul"),
    _t("repro.fixedpoint.ring:ring_add", "fixedpoint.elementwise"),
    _t("repro.fixedpoint.ring:ring_sub", "fixedpoint.elementwise"),
    _t("repro.fixedpoint.ring:ring_neg", "fixedpoint.elementwise"),
    _t("repro.fixedpoint.ring:ring_mul", "fixedpoint.elementwise"),
    _t("repro.fixedpoint.ring:ring_sum", "fixedpoint.elementwise"),
    _t("repro.fixedpoint.encoding:FixedPointEncoder.encode", "fixedpoint.codec"),
    _t("repro.fixedpoint.encoding:FixedPointEncoder.decode", "fixedpoint.codec"),
    _t("repro.fixedpoint.encoding:FixedPointEncoder.encode_int", "fixedpoint.codec"),
    _t("repro.fixedpoint.truncation:truncate_share", "fixedpoint.codec"),
    _t("repro.fixedpoint.truncation:truncate_public", "fixedpoint.codec"),
    # -- mpc ----------------------------------------------------------------
    _t("repro.mpc.comparison:secure_ge_const", "mpc.compare", meter="compare"),
    _t("repro.mpc.comparison:emulated_ge_const", "mpc.compare", meter="compare"),
    _t("repro.mpc.comparison:ComparisonDealer.bundle", "mpc.compare", counted=False),
    _t("repro.core.context:SecureContext.gen_matrix_triplet", "mpc.triplets"),
    _t("repro.core.context:SecureContext.gen_elementwise_triplet", "mpc.triplets"),
    _t("repro.core.context:SecureContext.gen_comparison_bundle", "mpc.triplets", counted=False),
    _t("repro.core.context:SecureContext.get_matrix_triplet", "mpc.triplets", counted=False),
    _t("repro.core.context:SecureContext.get_elementwise_triplet", "mpc.triplets", counted=False),
    _t("repro.core.context:SecureContext.provision_for", "mpc.triplets", counted=False),
    _t("repro.core.context:SecureContext.provision_demand", "mpc.triplets", counted=False),
    _t("repro.mpc.pool:TripletPool.provision", "mpc.triplets", counted=False),
    _t("repro.mpc.pool:TripletPool.provision_demand", "mpc.triplets", counted=False),
    _t("repro.mpc.pool:TripletPool.take_matrix", "mpc.triplets", counted=False),
    _t("repro.mpc.pool:TripletPool.take_elementwise", "mpc.triplets", counted=False),
    _t("repro.mpc.shares:share_secret", "mpc.share"),
    _t("repro.mpc.shares:reconstruct", "mpc.share"),
    _t("repro.mpc.prandom:parallel_uniform_ring", "mpc.share", counted=False),
    _t("repro.mpc.protocol:beaver_matmul_share", "mpc.beaver"),
    _t("repro.mpc.protocol:beaver_elementwise_share", "mpc.beaver"),
    _t("repro.mpc.softmax:softmax_protocol", "mpc.softmax"),
    # -- protocols ------------------------------------------------------------
    _t("repro.protocols.base:ProtocolBackend.matmul", "protocols.matmul"),
    _t("repro.protocols.base:ProtocolBackend.elementwise_mul", "protocols.elementwise_mul"),
    _t("repro.protocols.base:ProtocolBackend.compare_const", "protocols.compare"),
    _t("repro.protocols.base:ProtocolBackend.truncate", "protocols.truncate"),
    _t("repro.protocols.base:ProtocolBackend.softmax", "protocols.softmax"),
    _t("repro.protocols.base:ProtocolBackend.share_secret", "protocols.share"),
    _t("repro.protocols.base:ProtocolBackend.reconstruct", "protocols.share"),
    _t("repro.protocols.base:ProtocolBackend.truncate_values", "protocols.truncate"),
    _t("repro.protocols.registry:get_backend", "protocols.registry"),
    # -- comm -----------------------------------------------------------------
    _t("repro.comm.channel:Channel.send", "comm.send"),
    _t("repro.comm.channel:Channel.send_framed", "comm.send", counted=False),
    _t("repro.comm.compression:DeltaCompressor.encode", "comm.compress"),
    _t("repro.comm.compression:DeltaCompressor.decode", "comm.compress", counted=False),
    _t("repro.comm.csr:csr_encode", "comm.compress", counted=False),
    _t("repro.comm.csr:csr_decode", "comm.compress", counted=False),
    _t("repro.comm.csr:csr_nbytes", "comm.compress", counted=False),
    _t("repro.comm.wire:frame_sizes", "comm.wire"),
    _t("repro.comm.wire:blob_frame_sizes", "comm.wire"),
    _t("repro.comm.wire:RoundCoalescer.add", "comm.wire"),
    _t("repro.comm.wire:RoundCoalescer.flush", "comm.wire"),
    # -- simgpu ---------------------------------------------------------------
    _t("repro.simgpu.clock:SimClock.run", "simgpu.clock"),
    _t("repro.simgpu.clock:SimClock.join", "simgpu.clock", counted=False),
    _t("repro.simgpu.clock:SimClock.now", "simgpu.clock", counted=False),
    _t("repro.simgpu.clock:SimClock.advance_all", "simgpu.clock", counted=False),
    _t("repro.simgpu.device:SimGPU.h2d", "simgpu.device"),
    _t("repro.simgpu.device:SimGPU.d2h", "simgpu.device"),
    _t("repro.simgpu.device:SimGPU.free", "simgpu.device"),
    _t("repro.simgpu.device:SimGPU.gemm_ring", "simgpu.device"),
    _t("repro.simgpu.device:SimGPU.gemm_ring_batched", "simgpu.device"),
    _t("repro.simgpu.device:SimGPU.elementwise", "simgpu.device"),
    _t("repro.simgpu.device:SimCPU.run", "simgpu.device"),
    _t("repro.simgpu.device:SimCPU.gemm_ring", "simgpu.device"),
    _t("repro.simgpu.device:SimCPU.elementwise", "simgpu.device"),
    _t("repro.simgpu.device:SimCPU.rng_uniform_ring", "simgpu.device"),
    _t("repro.simgpu.memory:MemoryPool.allocate", "simgpu.device"),
    _t("repro.simgpu.memory:MemoryPool.free", "simgpu.device"),
    _t("repro.simgpu.kernels:im2col", "simgpu.kernels"),
    _t("repro.simgpu.kernels:col2im", "simgpu.kernels"),
    # -- pipeline ---------------------------------------------------------------
    _t("repro.pipeline.scheduler:schedule_secure_gemm", "pipeline.scheduler"),
    _t("repro.pipeline.profiler:StepProfiler.place_gemm", "pipeline.profiler"),
    _t("repro.pipeline.profiler:StepProfiler.place_gemm_batched", "pipeline.profiler"),
    _t("repro.pipeline.profiler:StepProfiler.place_elementwise", "pipeline.profiler"),
    _t("repro.pipeline.profiler:StepProfiler.place_rng", "pipeline.profiler"),
    # -- runtime ----------------------------------------------------------------
    _t("repro.runtime.dataflow:DataflowClock.run", "runtime.dataflow.deferred"),
    _t("repro.runtime.dataflow:DataflowClock.finalize", "runtime.dataflow.finalize"),
    # -- core -------------------------------------------------------------------
    _t("repro.core.context:SecureContext.create", "core.context"),
    _t("repro.core.context:SecureContext.share_plain", "core.context"),
    _t("repro.core.context:SecureContext.share_ring", "core.context"),
    _t("repro.core.context:SecureContext.mark", "core.context"),
    _t("repro.core.context:SecureContext.since", "core.context"),
    _t("repro.core.context:SecureContext.record_wire", "core.context"),
    _t("repro.core.context:SecureContext.begin_batch", "core.context"),
    _t("repro.core.context:SecureContext.finalize_runtime", "core.context"),
    _t("repro.core.training:SecureTrainer.train", "core.drivers"),
    _t("repro.core.inference:secure_predict", "core.drivers"),
    _t("repro.core.inference:run_secure_batch", "core.drivers"),
    _t("repro.core.ops:secure_matmul", "core.ops"),
    _t("repro.core.ops:secure_elementwise_mul", "core.ops"),
    _t("repro.core.ops:secure_compare_const", "core.ops"),
    _t("repro.core.ops:secure_softmax", "core.ops"),
    _t("repro.core.ops:activation", "core.ops"),
    _t("repro.core.ops:truncate", "core.ops"),
    _t("repro.core.tensor:SharedTensor.from_plain", "core.share_dataset"),
    _t("repro.core.tensor:SharedTensor.decode", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.row_slice", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.__add__", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.__sub__", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.__neg__", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.add_public", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.mul_public", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.mul_public_int", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.sum_rows", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.broadcast_rows", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.transpose", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.reshape", "core.tensor"),
    _t("repro.core.tensor:SharedTensor.to_fixed", "core.tensor"),
    _t("repro.core.models:SecureModel.train_batch", "core.layers"),
    _t("repro.core.models:SecureModel.forward", "core.layers"),
    _t("repro.core.layers:SecureLayer.forward", "core.layers"),
    _t("repro.core.layers:SecureLayer.backward", "core.layers"),
    _t("repro.core.layers:SecureLayer.apply_gradients", "core.layers"),
    # -- serve ------------------------------------------------------------------
    _t("repro.serve.fleet:SecureServingFleet.submit", "serve.fleet"),
    _t("repro.serve.fleet:SecureServingFleet.pump", "serve.fleet"),
    _t("repro.serve.fleet:SecureServingFleet.drain", "serve.fleet"),
    _t("repro.serve.fleet:SecureServingFleet.report", "serve.fleet"),
    _t("repro.serve.fleet:SecureServingFleet.add_replica", "serve.fleet"),
    _t("repro.serve.fleet:FleetRouter.route", "serve.fleet"),
    _t("repro.serve.dealer:DealerService.provision", "serve.fleet"),
    _t("repro.serve.replica:Replica.submit", "serve.replica"),
    _t("repro.serve.replica:Replica.pump", "serve.replica"),
    _t("repro.serve.replica:Replica.drain", "serve.replica"),
    _t("repro.serve.replica:Replica.poll", "serve.replica"),
    _t("repro.serve.replica:Replica.report", "serve.replica"),
    _t("repro.serve.queue:RequestQueue.check_admission", "serve.queue"),
    _t("repro.serve.queue:RequestQueue.admit", "serve.queue"),
    _t("repro.serve.batcher:AdaptiveBatcher.ready", "serve.batcher"),
    _t("repro.serve.batcher:AdaptiveBatcher.next_plan", "serve.batcher"),
    # -- telemetry ----------------------------------------------------------------
    _t("repro.telemetry.registry:Counter.inc", "telemetry.registry"),
    _t("repro.telemetry.registry:Counter.value", "telemetry.registry"),
    _t("repro.telemetry.registry:Gauge.set", "telemetry.registry"),
    _t("repro.telemetry.registry:Gauge.value", "telemetry.registry"),
    _t("repro.telemetry.registry:Histogram.observe", "telemetry.registry"),
    _t("repro.telemetry.registry:Histogram.quantile", "telemetry.registry"),
    _t("repro.telemetry.registry:MetricRegistry.counter", "telemetry.registry"),
    _t("repro.telemetry.registry:MetricRegistry.gauge", "telemetry.registry"),
    _t("repro.telemetry.registry:MetricRegistry.histogram", "telemetry.registry"),
    _t("repro.telemetry.core:Telemetry.span", "telemetry.spans", context_manager=True),
    _t("repro.telemetry.core:Telemetry.snapshot", "telemetry.snapshot"),
    # -- audit --------------------------------------------------------------------
    _t("repro.audit.transcript:TranscriptRecorder.record", "audit.tap"),
)


class _TimedContext:
    """Times ``__enter__`` and ``__exit__`` of a wrapped context manager
    as two spans of the factory's target (the body is not covered)."""

    __slots__ = ("_inner", "_tracer", "_sid")

    def __init__(self, inner, tracer, sid):
        self._inner = inner
        self._tracer = tracer
        self._sid = sid

    def __enter__(self):
        return self._tracer.call(self._sid, self._inner.__enter__, (), {})

    def __exit__(self, *exc):
        return self._tracer.call(self._sid, self._inner.__exit__, exc, {})


class Tracer:
    """Installs the wrappers, keeps the spans, and puts everything back."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.unresolved: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.tally: dict[str, int] = {
            "fixedpoint.matmul.macs": 0,
            "fixedpoint.matmul.operand_bytes": 0,
            "mpc.compare.elements": 0,
        }
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def call(self, sid, fn, args, kwargs):
        """Run ``fn`` inside one span of target ``sid``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (sid, start, end, parent)

    def _wrap(self, sid: int, target: Target, fn):
        meter = METERS[target.meter] if target.meter else None
        tally = self.tally

        def traced(*args, **kwargs):
            result = self.call(sid, fn, args, kwargs)
            if meter is not None:
                try:
                    meter(tally, args, result)
                except (IndexError, AttributeError):
                    pass  # called in a shape the meter does not know: time it, skip the tally
            if target.context_manager:
                return _TimedContext(result, self, sid)
            return result

        return functools.wraps(fn)(traced)

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Resolve every target and rebind it; unresolved names are kept
        in :attr:`unresolved` and otherwise ignored."""
        self.unresolved = []
        for sid, target in enumerate(self.targets):
            module_name, _, qualname = target.path.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, leaf = qualname.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                if inspect.isclass(owner):
                    bound = self._install_method(sid, target, owner, leaf)
                else:
                    bound = self._install_function(sid, target, getattr(owner, leaf))
            except (ImportError, AttributeError):
                bound = False
            if not bound:
                self.unresolved.append(target.path)

    def _install_function(self, sid, target, original) -> bool:
        wrapper = self._wrap(sid, target, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
        return True

    def _install_method(self, sid, target, owner, leaf) -> bool:
        bound = False
        pending, seen = [owner], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            raw = vars(cls).get(leaf)
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(sid, target, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(sid, target, raw)
            else:
                continue
            setattr(cls, leaf, wrapped)
            self._undo.append((cls, leaf, raw))
            bound = True
        return bound

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict[str, dict | None]:
        """Per metric group: calls (counted targets), spans, inclusive
        and self seconds.  A group none of whose targets resolved is None.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _sid, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        groups: dict[str, dict | None] = {}
        unresolved = set(self.unresolved)
        for target in self.targets:
            if target.path in unresolved:
                groups.setdefault(target.group, None)
            elif groups.get(target.group) is None:
                groups[target.group] = {"calls": 0, "spans": 0, "total_s": 0.0, "self_s": 0.0}
        for index, (sid, start, end, _parent) in enumerate(spans):
            target = self.targets[sid]
            row = groups[target.group]
            row["spans"] += 1
            row["calls"] += target.counted
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[index]
        return groups

    def span_table(self) -> dict:
        """The spans as JSON columns: per span the index of its name in
        ``names``, start, end and parent span (-1 at the top)."""
        names, starts, ends, parents = zip(*self.spans) if self.spans else ((), (), (), ())
        return {
            "names": [target.path for target in self.targets],
            "name": names,
            "start": starts,
            "end": ends,
            "parent": parents,
        }
