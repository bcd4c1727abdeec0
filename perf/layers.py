"""Per-layer metrics: tracer groups and telemetry deltas -> the catalogue.

Two sources feed the table.  Host seconds and call counts come from the
spans of :mod:`tracer` (self time, so the layers do not overlap).
Modelled quantities — wire bytes, GEMM flops, PCIe bytes, triplets —
come from ``ctx.telemetry.snapshot()`` deltas, read between units so
that the reads are never timed.  Host numbers are per traced unit;
telemetry numbers are per unit over every unit harvested.
"""

from __future__ import annotations

from metrics import percentile


class TelemetryDelta:
    """Sums the telemetry quantities the table needs over contexts and units.

    ``harvest`` diffs each context against its previous snapshot when it
    has one (a context that lives across units) and takes the whole
    snapshot otherwise (a context the unit created).
    """

    COUNTERS = {
        "mpc.triplets.generated": "mpc.triplets_generated",
        "mpc.triplets.consumed": "mpc.triplets_consumed",
        "mpc.pool.hits": "mpc.pool.hits",
        "comm.compress.raw": "comm.compression.raw_bytes",
        "comm.compress.wire": "comm.compression.wire_bytes",
        "comm.compress.dense": "comm.compression.dense_messages",
        "comm.compress.csr": "comm.compression.compressed_messages",
        "comm.frame_overhead_bytes": "comm.frame_overhead_bytes",
        "comm.coalesced_messages": "comm.coalesced_messages",
        "simgpu.sim_gemm_count": "simgpu.gemm_count",
        "simgpu.sim_gemm_flops": "simgpu.gemm_flops",
        "simgpu.sim_h2d_bytes": "simgpu.h2d_bytes",
        "simgpu.sim_d2h_bytes": "simgpu.d2h_bytes",
    }

    def __init__(self, live_contexts: list):
        self.totals = dict.fromkeys(
            [*self.COUNTERS, "comm.server_bytes", "comm.link_busy_s", "sim.online_s"], 0.0
        )
        self.units = 0
        self._last = {id(ctx): ctx.telemetry.snapshot() for ctx in live_contexts}

    def harvest(self, contexts: list) -> None:
        self.units += 1
        for ctx in contexts:
            snapshot = ctx.telemetry.snapshot()
            previous = self._last.get(id(ctx))
            if previous is None:
                delta = snapshot
            else:
                delta = snapshot.diff(previous)
                self._last[id(ctx)] = snapshot
            for key, counter in self.COUNTERS.items():
                self.totals[key] += delta.counter(counter)
            busy = 0.0
            for labels, value in delta.series("comm.bytes").items():
                pair = dict(labels)
                if pair["src"].startswith("server") and pair["dst"].startswith("server"):
                    self.totals["comm.server_bytes"] += value
                    busy = max(
                        busy,
                        delta.counter("comm.link_busy_seconds", src=pair["src"], dst=pair["dst"]),
                    )
            # the busiest directed server link against the online makespan
            self.totals["comm.link_busy_s"] += busy
            self.totals["sim.online_s"] += delta.gauge("phase.sim_seconds", clock="online")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _field(groups: dict, name: str, field: str, per: int):
    row = groups.get(name)
    return None if row is None else row[field] / per


def _layer(groups: dict, layer: str, field: str, per: int):
    """``field`` summed over the layer's groups; None when all are unresolved."""
    rows = [row for name, row in groups.items() if name.split(".")[0] == layer]
    if all(row is None for row in rows):
        return None
    return sum(row[field] for row in rows if row is not None) / per


def layer_metrics(
    *,
    groups: dict,
    tally: dict,
    traced_units: int,
    traced_unit_s: float,
    telemetry: TelemetryDelta,
    serve: dict | None,
    max_abs_err: float,
    audit: dict,
    host: dict,
) -> dict:
    """Every per-layer metric by catalogue name; None where unresolved."""
    n = traced_units
    t = {key: value / max(telemetry.units, 1) for key, value in telemetry.totals.items()}
    out: dict[str, float | None] = {}

    out["fixedpoint.matmul.calls"] = _field(groups, "fixedpoint.matmul", "calls", n)
    out["fixedpoint.matmul.self_s"] = _field(groups, "fixedpoint.matmul", "self_s", n)
    matmul_traced = groups.get("fixedpoint.matmul") is not None
    out["fixedpoint.matmul.macs"] = tally["fixedpoint.matmul.macs"] / n if matmul_traced else None
    out["fixedpoint.matmul.operand_bytes"] = (
        tally["fixedpoint.matmul.operand_bytes"] / n if matmul_traced else None
    )
    out["fixedpoint.elementwise.calls"] = _field(groups, "fixedpoint.elementwise", "calls", n)
    out["fixedpoint.elementwise.self_s"] = _field(groups, "fixedpoint.elementwise", "self_s", n)
    out["fixedpoint.codec.self_s"] = _field(groups, "fixedpoint.codec", "self_s", n)
    out["fixedpoint.max_abs_err"] = max_abs_err

    out["mpc.compare.calls"] = _field(groups, "mpc.compare", "calls", n)
    out["mpc.compare.elements"] = (
        tally["mpc.compare.elements"] / n if groups.get("mpc.compare") is not None else None
    )
    out["mpc.compare.self_s"] = _field(groups, "mpc.compare", "self_s", n)
    out["mpc.triplets.generated"] = t["mpc.triplets.generated"]
    out["mpc.triplets.self_s"] = _field(groups, "mpc.triplets", "self_s", n)
    out["mpc.pool.hit_share"] = _share(t["mpc.pool.hits"], t["mpc.triplets.consumed"])
    out["mpc.share.calls"] = _field(groups, "mpc.share", "calls", n)
    out["mpc.share.self_s"] = _field(groups, "mpc.share", "self_s", n)
    out["mpc.softmax.self_s"] = _field(groups, "mpc.softmax", "self_s", n)

    out["protocols.matmul.calls"] = _field(groups, "protocols.matmul", "calls", n)
    out["protocols.elementwise_mul.calls"] = _field(groups, "protocols.elementwise_mul", "calls", n)
    out["protocols.compare.calls"] = _field(groups, "protocols.compare", "calls", n)
    out["protocols.self_s"] = _layer(groups, "protocols", "self_s", n)

    out["comm.send.calls"] = _field(groups, "comm.send", "calls", n)
    out["comm.self_s"] = _layer(groups, "comm", "self_s", n)
    out["comm.wire_bytes"] = t["comm.server_bytes"]
    # what the same messages would have cost without delta compression
    out["comm.raw_bytes"] = t["comm.server_bytes"] + t["comm.compress.raw"] - t["comm.compress.wire"]
    out["comm.frame_overhead_bytes"] = t["comm.frame_overhead_bytes"]
    out["comm.coalesced_messages"] = t["comm.coalesced_messages"]
    attempts = t["comm.compress.dense"] + t["comm.compress.csr"]
    out["comm.compress.attempts"] = attempts
    out["comm.compress.hit_share"] = _share(t["comm.compress.csr"], attempts)
    out["comm.sim_link_busy_share"] = _share(t["comm.link_busy_s"], t["sim.online_s"])

    tasks = _field(groups, "simgpu.clock", "calls", n)
    out["simgpu.tasks"] = tasks
    out["simgpu.self_s"] = _layer(groups, "simgpu", "self_s", n)
    out["simgpu.host_us_per_task"] = (
        None if not tasks or out["simgpu.self_s"] is None else 1e6 * out["simgpu.self_s"] / tasks
    )
    for name in ("sim_gemm_count", "sim_gemm_flops", "sim_h2d_bytes", "sim_d2h_bytes"):
        out[f"simgpu.{name}"] = t[f"simgpu.{name}"]

    out["pipeline.self_s"] = _layer(groups, "pipeline", "self_s", n)
    out["runtime.dataflow.deferred_tasks"] = _field(groups, "runtime.dataflow.deferred", "calls", n)
    out["runtime.dataflow.finalize_self_s"] = _field(
        groups, "runtime.dataflow.finalize", "self_s", n
    )

    out["core.self_s"] = _layer(groups, "core", "self_s", n)
    out["core.ops.calls"] = _field(groups, "core.ops", "calls", n)
    out["core.share_dataset_s"] = _field(groups, "core.share_dataset", "total_s", n)

    out["serve.self_s"] = _layer(groups, "serve", "self_s", n)
    serve = serve or {}
    units = max(telemetry.units, 1)
    for name in ("requests", "batches", "padded_rows", "rerouted", "rejected"):
        out[f"serve.{name}"] = serve.get(name, 0) / units
    rows = serve.get("rows", 0)
    out["serve.batch_fill_share"] = _share(rows, rows + serve.get("padded_rows", 0))
    waits, services = serve.get("queue_wait_s", []), serve.get("service_s", [])
    out["serve.sim_queue_wait_p50_s"] = percentile(waits, 0.50) if waits else 0.0
    out["serve.sim_queue_wait_p95_s"] = percentile(waits, 0.95) if waits else 0.0
    out["serve.sim_service_p50_s"] = percentile(services, 0.50) if services else 0.0

    out["telemetry.calls"] = _layer(groups, "telemetry", "spans", n)
    out["telemetry.self_s"] = _layer(groups, "telemetry", "self_s", n)
    out["telemetry.share"] = (
        None if out["telemetry.self_s"] is None else _share(out["telemetry.self_s"], traced_unit_s)
    )

    out["audit.records"] = audit["records"]
    out["audit.tap_overhead_share"] = audit["tap_overhead_share"]

    covered = sum(row["self_s"] for row in groups.values() if row is not None) / n
    out.update(host)
    out["host.untraced_s"] = traced_unit_s - covered
    return out
