"""The :class:`Telemetry` facade: one observability surface per context.

Every :class:`~repro.core.context.SecureContext` owns one ``Telemetry``
instance; the channels, devices, compressors and drivers it wires up all
record into the same registry/span log, so ``ctx.telemetry.snapshot()``
is a complete picture of an experiment and
``ctx.telemetry.report()`` prints it.

Metric naming conventions (dots group, labels discriminate):

====================================  ==========================================
``comm.bytes{channel,src,dst}``       wire bytes per link direction
``comm.messages{...}``                message count per link direction
``comm.link_busy_seconds{...}``       per-direction occupancy (busy seconds)
``comm.compression.*{direction}``     raw/wire bytes, dense/csr message counts
``simgpu.kernel_seconds{device,kind}``kernel-time histogram (gemm/elementwise/..)
``simgpu.queue_wait_seconds{device}`` start delay behind busy streams/engines
``simgpu.h2d_bytes / d2h_bytes``      PCIe traffic per device
``simcpu.seconds{device,kind}``       host-side time histogram by kind
``mpc.triplets_generated{kind,shape}``offline Beaver material produced
``mpc.triplets_consumed{kind,shape}`` op-stream fetches of that material
``mpc.mask_reuse.hits{side,scope}``   openings served, not sent (scope: step|static)
``ops.invocations{op}``               secure-op call counts
``ops.online_seconds{op}``            online makespan attributed per op
``phase.sim_seconds{clock}``          gauge: each clock's frontier at snapshot
``faults.injected{kind,link}``        fault events injected (repro.faults)
``faults.retransmits{link}``          frames/messages retransmitted
``faults.retransmit_bytes{link}``     wire bytes spent on retransmission
``faults.timeouts{link}``             receive/ack timeouts
``faults.backoff_seconds{link}``      simulated backoff wait charged
``faults.corrupt_detected{link}``     corrupted frames, modelled as detected
``faults.duplicates_suppressed{...}`` already-seen frames discarded
``faults.delays_applied{link}``       injected-delay hits
``faults.party_restarts{party}``      crashed parties brought back
``faults.batches_replayed{party}``    training batches re-run after restore
``faults.requests_retried{party}``    inference batch requests retried
``infer.padded_rows``                 zero rows padded onto ragged tail batches
``serve.requests_admitted{client}``   requests accepted by the serving queue
``serve.requests_rejected{client}``   retryable admission rejections (repro.serve)
``serve.queue_depth_rows``            gauge: rows currently queued
``serve.requests_served{client}``     requests answered
``serve.rows_served``                 input rows answered
``serve.batches``                     coalesced secure batches run
``serve.padded_rows``                 pad rows added to reach the batch shape
``serve.batch_timer_waits``           partial batches cut by the max_wait timer
``serve.batch_fill``                  histogram: served rows per batch slot
``serve.request_latency_seconds{stage}`` histogram: queue/service/total spans
``serve.latency_quantile_seconds{q}`` gauge: p50/p95/p99 at last report()
====================================  ==========================================
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.simgpu.clock import SimClock
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanLog, SpanRecord


class Telemetry:
    """Registry + span log + the clocks that give spans simulated time."""

    def __init__(self, clocks: dict[str, SimClock] | None = None):
        self.registry = MetricRegistry()
        self.span_log = SpanLog()
        self._clocks: dict[str, SimClock] = dict(clocks or {})

    # -- clocks ----------------------------------------------------------------

    def register_clock(self, name: str, clock: SimClock) -> None:
        self._clocks[name] = clock

    def clocks(self) -> dict[str, SimClock]:
        return dict(self._clocks)

    # -- metric accessors (delegation keeps call sites short) ------------------

    def counter(self, name: str, description: str = "") -> Counter:
        return self.registry.counter(name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self.registry.gauge(name, description)

    def histogram(
        self, name: str, description: str = "", *, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        return self.registry.histogram(name, description, buckets=buckets)

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, *, clock: str | None = None, **labels):
        """Record a span; ``clock`` names a registered SimClock.

        The simulated interval is the named clock's makespan delta across
        the span body (how far the spanned work pushed that phase's
        frontier); wall time is always recorded.
        """
        sim_clock = self._clocks.get(clock) if clock else None
        now = sim_clock.now if sim_clock is not None else None
        with self.span_log.span(name, clock_name=clock or "", now=now, **labels) as record:
            yield record

    # -- snapshot / export -----------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze every series (after pinning phase gauges to the clocks)."""
        phase = self.gauge("phase.sim_seconds", "simulated frontier per clock")
        for name, clock in self._clocks.items():
            phase.set(clock.now(), clock=name)
        return TelemetrySnapshot.capture(self.registry, self.span_log)

    def report(self, *, title: str = "telemetry report") -> str:
        from repro.telemetry.export import text_report

        return text_report(self.snapshot(), title=title)

    def to_json(self, **dumps_kwargs) -> str:
        return self.snapshot().to_json(**dumps_kwargs)

    def chrome_trace_events(self, *, min_duration_s: float = 0.0) -> list[dict]:
        from repro.telemetry.export import chrome_trace_events

        return chrome_trace_events(self, min_duration_s=min_duration_s)

    def export_chrome_trace(self, path: str | Path, *, min_duration_s: float = 0.0) -> Path:
        from repro.telemetry.export import export_chrome_trace

        return export_chrome_trace(self, path, min_duration_s=min_duration_s)


def maybe_span(telemetry: Telemetry | None, name: str, *, clock: str | None = None, **labels):
    """``telemetry.span(...)`` or a no-op when telemetry is absent."""
    if telemetry is None:
        return nullcontext(SpanRecord(name=name))
    return telemetry.span(name, clock=clock, **labels)
