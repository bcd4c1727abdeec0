"""Metric catalogue and estimators of the two-clock benchmark.

Every number the benchmark prints is declared here once: its name, its
unit, which clock it is read from, which direction is better and, for
the end-to-end metrics, the share by which it may get worse before a
change counts as a regression.  ``BENCHMARK.json`` carries the same
names, units, directions and bounds (``test_perf.py`` holds the two
equal); ``compare.py`` reads the bounds and the exact flags from here.

Clocks: ``host`` is this Python process (``time.perf_counter``,
``ru_maxrss``); ``sim`` is the modelled V100/PCIe/InfiniBand cluster
(``SimClock`` seconds, unit ``sim_s`` so that nobody reads it as host
time); ``count`` is a deterministic tally of the modelled wire.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

WORKLOAD_NAMES = (
    "train_mlp",
    "train_cnn",
    "train_attention",
    "infer_mlp_rep3",
    "cold_start",
    "serve_fleet",
)

#: Timed units a run always executes, and the units the simulated and
#: counted metrics are summed over.  Fixing the set makes those metrics
#: independent of how many units the host fits into ``--seconds``.
SIM_UNITS = 10


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    clock: str  # "host" | "sim" | "count"
    bound: float
    exact: bool = False  # compare.py checks equality, not a tolerance
    better: str = "lower"


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str = "lower"

    @property
    def clock(self) -> str:
        """Host-clock values carry noise; everything else repeats exactly."""
        if self.name in _HOST_DERIVED or self.unit in ("s", "us"):
            return "host"
        return "sim" if self.unit == "sim_s" or ".sim_" in self.name else "count"


#: Per-layer metrics that are ratios of host times or host memory.
_HOST_DERIVED = frozenset(
    {
        "telemetry.share",
        "audit.tap_overhead_share",
        "host.noise_ratio",
        "host.alloc_peak_mb",
        "host.trace_overhead_share",
    }
)


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "host", 0.25),
    EndToEnd("wall_s", "s", "host", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "host", 0.05),
    EndToEnd("sim_online_s", "sim_s", "sim", 0.005, exact=True),
    EndToEnd("sim_offline_s", "sim_s", "sim", 0.005, exact=True),
    EndToEnd("sim_latency_p50_s", "sim_s", "sim", 0.005, exact=True),
    EndToEnd("sim_latency_p95_s", "sim_s", "sim", 0.005, exact=True),
    EndToEnd("wire_bytes", "B", "count", 0.005, exact=True),
    EndToEnd("wire_messages", "count", "count", 0.001, exact=True),
)

PER_LAYER: tuple[Layer, ...] = (
    # fixedpoint: ring kernels, element-wise ring ops, float<->ring codec
    Layer("fixedpoint.matmul.calls", "count"),
    Layer("fixedpoint.matmul.self_s", "s"),
    Layer("fixedpoint.matmul.macs", "count"),
    Layer("fixedpoint.matmul.operand_bytes", "B"),
    Layer("fixedpoint.elementwise.calls", "count"),
    Layer("fixedpoint.elementwise.self_s", "s"),
    Layer("fixedpoint.codec.self_s", "s"),
    Layer("fixedpoint.max_abs_err", "abs"),
    # mpc: comparison, triplets, sharing, softmax
    Layer("mpc.compare.calls", "count"),
    Layer("mpc.compare.elements", "count"),
    Layer("mpc.compare.self_s", "s"),
    Layer("mpc.triplets.generated", "count"),
    Layer("mpc.triplets.self_s", "s"),
    Layer("mpc.pool.hit_share", "share", "higher"),
    Layer("mpc.share.calls", "count"),
    Layer("mpc.share.self_s", "s"),
    Layer("mpc.softmax.self_s", "s"),
    # protocols: backend dispatch of the interactive ops
    Layer("protocols.matmul.calls", "count"),
    Layer("protocols.elementwise_mul.calls", "count"),
    Layer("protocols.compare.calls", "count"),
    Layer("protocols.self_s", "s"),
    # comm: channels, compression, framing
    Layer("comm.send.calls", "count"),
    Layer("comm.self_s", "s"),
    Layer("comm.raw_bytes", "B"),
    Layer("comm.wire_bytes", "B"),
    Layer("comm.frame_overhead_bytes", "B"),
    Layer("comm.coalesced_messages", "count", "higher"),
    Layer("comm.compress.attempts", "count"),
    Layer("comm.compress.hit_share", "share", "higher"),
    Layer("comm.sim_link_busy_share", "share"),
    # simgpu: SimClock bookkeeping and the simulated devices
    Layer("simgpu.tasks", "count"),
    Layer("simgpu.self_s", "s"),
    Layer("simgpu.host_us_per_task", "us"),
    Layer("simgpu.sim_gemm_count", "count"),
    Layer("simgpu.sim_gemm_flops", "flop"),
    Layer("simgpu.sim_h2d_bytes", "B"),
    Layer("simgpu.sim_d2h_bytes", "B"),
    # pipeline: placement profiler and the Eq. 8 GEMM schedule
    Layer("pipeline.self_s", "s"),
    # runtime: the deferred dataflow scheduler (idle under lockstep)
    Layer("runtime.dataflow.deferred_tasks", "count"),
    Layer("runtime.dataflow.finalize_self_s", "s"),
    # core: context / ops / layers / tensor dispatch
    Layer("core.self_s", "s"),
    Layer("core.ops.calls", "count"),
    Layer("core.share_dataset_s", "s"),
    # serve: fleet, router, replicas, queue, batcher
    Layer("serve.self_s", "s"),
    Layer("serve.requests", "count", "higher"),
    Layer("serve.batches", "count"),
    Layer("serve.batch_fill_share", "share", "higher"),
    Layer("serve.padded_rows", "count"),
    Layer("serve.sim_queue_wait_p50_s", "sim_s"),
    Layer("serve.sim_queue_wait_p95_s", "sim_s"),
    Layer("serve.sim_service_p50_s", "sim_s"),
    Layer("serve.rerouted", "count"),
    Layer("serve.rejected", "count"),
    # telemetry: the registry the other layers record into
    Layer("telemetry.calls", "count"),
    Layer("telemetry.self_s", "s"),
    Layer("telemetry.share", "share"),
    # audit: the transcript tap, priced by switching it on
    Layer("audit.records", "count"),
    Layer("audit.tap_overhead_share", "share"),
    # host: validity of the host-clock numbers themselves
    Layer("host.import_s", "s"),
    Layer("host.probe_s", "s"),
    Layer("host.noise_ratio", "ratio"),
    Layer("host.py_calls", "count"),
    Layer("host.alloc_peak_mb", "MiB"),
    Layer("host.trace_overhead_share", "share"),
    Layer("host.untraced_s", "s"),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; exact for the deterministic sim values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
