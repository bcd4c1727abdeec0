"""Exporters: Chrome tracing, plaintext report.

Two output formats:

* :func:`chrome_trace_events` / :func:`export_chrome_trace` — the
  ``chrome://tracing`` / Perfetto event-list format.  Works on a bare
  :class:`~repro.simgpu.clock.SimClock` (one process, one thread per
  resource — the legacy surface) or on a whole
  :class:`~repro.telemetry.Telemetry` (one process per registered
  clock, plus a span lane per clock showing the nested op/phase spans);
* :func:`text_report` — the aligned plaintext report the bench CLI and
  the examples print.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.simgpu.clock import SimClock
from repro.telemetry.snapshot import TelemetrySnapshot

__all__ = [
    "chrome_trace_events",
    "export_chrome_trace",
    "text_report",
]


def _clock_events(
    clock: SimClock, *, pid: int, process_name: str, min_duration_s: float
) -> list[dict]:
    resources = {name: idx for idx, name in enumerate(clock.resources())}
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": process_name}}
    ]
    for name, tid in resources.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}
        )
    for task in clock.trace:
        if task.duration < min_duration_s:
            continue
        events.append(
            {
                "name": task.label or "task",
                "ph": "X",
                "pid": pid,
                "tid": resources.get(task.resource, len(resources)),
                "ts": task.start * 1e6,
                "dur": task.duration * 1e6,
            }
        )
    return events


def chrome_trace_events(
    source, *, process_name: str = "repro", min_duration_s: float = 0.0
) -> list[dict]:
    """Chrome-tracing events for a ``SimClock`` or a ``Telemetry``.

    For a clock: each resource becomes a thread, each task a complete
    (``ph: "X"``) event.
    For a telemetry instance: one process per registered clock (named
    ``<process_name>:<clock>``), plus a ``spans`` thread per clock
    carrying the recorded spans at their simulated timestamps.
    """
    if isinstance(source, SimClock):
        return _clock_events(
            source, pid=0, process_name=process_name, min_duration_s=min_duration_s
        )

    events: list[dict] = []
    clock_pids: dict[str, int] = {}
    for pid, (clock_name, clock) in enumerate(sorted(source.clocks().items())):
        clock_pids[clock_name] = pid
        events.extend(
            _clock_events(
                clock,
                pid=pid,
                process_name=f"{process_name}:{clock_name}",
                min_duration_s=min_duration_s,
            )
        )
    span_tid = 10_000  # far above any per-resource thread id
    named_span_lanes = set()
    for span in source.span_log.finished():
        pid = clock_pids.get(span.clock, 0)
        if (pid, span.depth) not in named_span_lanes:
            named_span_lanes.add((pid, span.depth))
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": span_tid + span.depth,
                    "args": {"name": f"spans (depth {span.depth})"},
                }
            )
        if span.sim_duration < min_duration_s:
            continue
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": pid,
                "tid": span_tid + span.depth,
                "ts": span.sim_start * 1e6,
                "dur": span.sim_duration * 1e6,
                "args": dict(span.labels),
            }
        )
    return events


def export_chrome_trace(
    source,
    path: str | Path,
    *,
    process_name: str = "repro",
    min_duration_s: float = 0.0,
) -> Path:
    """Write the Chrome trace JSON for a clock or telemetry; returns the path.

    Remember to construct the context with ``FrameworkConfig(trace=True)``
    — without tracing the clocks record no tasks (spans still export).
    """
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(
            source, process_name=process_name, min_duration_s=min_duration_s
        ),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload))
    return path


def _fmt_bytes(n: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {unit}"
    return f"{n:.0f} B"


def _fmt_s(s: float) -> str:
    if abs(s) >= 1.0:
        return f"{s:.3f} s"
    if abs(s) >= 1e-3:
        return f"{s * 1e3:.3f} ms"
    return f"{s * 1e6:.1f} us"


def text_report(snapshot: TelemetrySnapshot, *, title: str = "telemetry report") -> str:
    """Aligned plaintext roll-up of the snapshot's headline figures."""
    lines = [title, "=" * len(title)]

    phases = [
        (dict(key).get("clock", "?"), value)
        for key, value in snapshot.series("phase.sim_seconds").items()
    ]
    if phases:
        lines.append("-- phases (simulated seconds) --")
        total = sum(v for _, v in phases)
        for clock_name, value in sorted(phases):
            lines.append(f"  {clock_name:<10} {_fmt_s(value):>12}")
        lines.append(f"  {'total':<10} {_fmt_s(total):>12}")

    channels = snapshot.label_values("comm.bytes", "channel")
    if channels:
        lines.append("-- communication --")
        for channel in channels:
            sent = snapshot.counter("comm.bytes", channel=channel)
            msgs = snapshot.counter("comm.messages", channel=channel)
            busy = snapshot.counter("comm.link_busy_seconds", channel=channel)
            lines.append(
                f"  {channel:<24} {_fmt_bytes(sent):>12} in {int(msgs):>6} msgs, "
                f"link busy {_fmt_s(busy)}"
            )
        raw = snapshot.counter("comm.compression.raw_bytes")
        wire = snapshot.counter("comm.compression.wire_bytes")
        if raw:
            saved = 1.0 - wire / raw
            lines.append(
                f"  compression: raw {_fmt_bytes(raw)} -> wire {_fmt_bytes(wire)} "
                f"({saved:.1%} saved)"
            )

    devices = sorted(
        set(
            snapshot.label_values("simgpu.kernel_seconds", "device")
            + snapshot.label_values("simcpu.seconds", "device")
        )
    )
    if devices:
        lines.append("-- device kernels --")
        for device in devices:
            for metric in ("simgpu.kernel_seconds", "simcpu.seconds"):
                for kind in snapshot.label_values(metric, "kind"):
                    data = snapshot.histogram(metric, device=device, kind=kind)
                    if data.count:
                        lines.append(
                            f"  {device:<10} {kind:<12} n={data.count:<6} "
                            f"total {_fmt_s(data.total):>12}  mean {_fmt_s(data.mean):>12}"
                        )
            h2d = snapshot.counter("simgpu.h2d_bytes", device=device)
            d2h = snapshot.counter("simgpu.d2h_bytes", device=device)
            if h2d or d2h:
                lines.append(
                    f"  {device:<10} {'pcie':<12} h2d {_fmt_bytes(h2d)}, d2h {_fmt_bytes(d2h)}"
                )

    generated = snapshot.counter("mpc.triplets_generated")
    if generated:
        consumed = snapshot.counter("mpc.triplets_consumed")
        lines.append("-- offline material --")
        lines.append(
            f"  triplets: {int(generated)} generated, {int(consumed)} consumed "
            f"across {len(snapshot.label_values('mpc.triplets_generated', 'shape'))} shapes"
        )
        comparisons = snapshot.counter("mpc.comparisons_issued")
        if comparisons:
            lines.append(f"  comparison bundles: {int(comparisons)}")

    op_names = snapshot.label_values("ops.invocations", "op")
    if op_names:
        lines.append("-- secure ops --")
        for op in op_names:
            calls = snapshot.counter("ops.invocations", op=op)
            online = snapshot.counter("ops.online_seconds", op=op)
            lines.append(f"  {op:<12} x{int(calls):<5} online {_fmt_s(online):>12}")

    fault_rows = []
    for metric in (
        "faults.injected",
        "faults.retransmits",
        "faults.retransmit_bytes",
        "faults.timeouts",
        "faults.backoff_seconds",
        "faults.corrupt_detected",
        "faults.duplicates_suppressed",
        "faults.delays_applied",
        "faults.party_restarts",
        "faults.batches_replayed",
        "faults.requests_retried",
    ):
        value = snapshot.counter(metric)
        if value:
            if metric == "faults.retransmit_bytes":
                rendered = _fmt_bytes(value)
            elif metric == "faults.backoff_seconds":
                rendered = _fmt_s(value)
            else:
                rendered = f"{int(value)}"
            fault_rows.append(f"  {metric.removeprefix('faults.'):<22} {rendered:>12}")
    if fault_rows:
        lines.append("-- fault injection & recovery --")
        lines.extend(fault_rows)

    spans = snapshot.spans()
    if spans:
        lines.append(f"-- spans ({len(spans)} recorded) --")
        for span in spans[:40]:
            indent = "  " * (span.depth + 1)
            lines.append(
                f"{indent}{span.name} [{span.clock}] {_fmt_s(span.sim_duration)}"
            )
        if len(spans) > 40:
            lines.append(f"  ... {len(spans) - 40} more")

    if len(lines) == 2:
        lines.append("(no activity recorded)")
    return "\n".join(lines)
