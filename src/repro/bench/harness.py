"""Run one benchmark cell and extrapolate to paper scale.

The harness runs a small number of *real* batches (full protocol, full
numerics) and scales the marginal per-batch simulated cost to the
paper's sample counts — legitimate because the per-batch protocol work
is identical across batches (same shapes, same ops) and the simulated
clock is deterministic.  One-time setup (triplet-stream generation) is
kept separate and added once.

Every figure is read out of the context's telemetry snapshot (phase
gauges, channel counters, compression counters, the
``train.share_dataset`` / ``train.batch`` spans) rather than from ad-hoc
driver bookkeeping, so the benchmarks exercise the same observability
surface users see in ``ctx.telemetry.report()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audit.wire import audit_context
from repro.bench.workloads import WorkloadSpec, build_plain_model, build_secure_model, load_workload
from repro.baselines.plain import PlainTimer, PlainTrainer
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.tensor import SharedTensor
from repro.core.training import SecureTrainer


@dataclass
class SecureRunResult:
    """Measured + extrapolated costs of one secure run.

    Extrapolation model: offline = one-shot dataset sharing (linear in
    sample count) + one-time triplet setup; online = marginal per-batch
    cost x batch count.
    """

    spec: WorkloadSpec
    measured_batches: int
    measured_samples: int
    sharing_offline_s: float
    setup_offline_s: float
    per_batch_online_s: float
    server_bytes: int
    raw_comm_bytes: int
    wire_comm_bytes: int
    losses: list
    #: Wire-view audit of the run's recorded traffic (``audit=True`` only).
    wire: object | None = None

    def offline_s(self, n_batches: int | None = None) -> float:
        n = self.spec.paper_batches if n_batches is None else n_batches
        samples = n * self.spec.batch_size
        scale = samples / max(self.measured_samples, 1)
        return self.sharing_offline_s * scale + self.setup_offline_s

    def online_s(self, n_batches: int | None = None) -> float:
        n = self.spec.paper_batches if n_batches is None else n_batches
        return self.per_batch_online_s * n

    def total_s(self, n_batches: int | None = None) -> float:
        return self.offline_s(n_batches) + self.online_s(n_batches)

    @property
    def occupancy(self) -> float:
        total = self.total_s()
        return self.online_s() / total if total else 0.0

    @property
    def compression_savings(self) -> float:
        if self.raw_comm_bytes == 0:
            return 0.0
        return 1.0 - self.wire_comm_bytes / self.raw_comm_bytes


@dataclass
class PlainRunResult:
    """Measured + extrapolated costs of one plain (non-secure) run."""

    spec: WorkloadSpec
    measured_batches: int
    per_batch_s: float
    losses: list

    def total_s(self, n_batches: int | None = None) -> float:
        n = self.spec.paper_batches if n_batches is None else n_batches
        return self.per_batch_s * n


def _secure_result_from_snapshot(
    ctx: SecureContext,
    spec: WorkloadSpec,
    *,
    batches: int,
    samples: int,
    span_prefix: str,
    losses: list,
) -> SecureRunResult:
    """Assemble a :class:`SecureRunResult` from the run's telemetry.

    The context is fresh per run, so the snapshot *is* the run: phase
    gauges give the clock frontiers, ``<prefix>.share_dataset`` the
    one-shot sharing cost, the ``<prefix>.batch`` span tail the marginal
    online cost (first batch excluded — lazy placement decisions make it
    atypical), and the comm counters the traffic.
    """
    snap = ctx.telemetry.snapshot()
    sharing = sum(s.sim_duration for s in snap.spans(f"{span_prefix}.share_dataset"))
    offline_total = snap.gauge("phase.sim_seconds", clock="offline")
    batch_spans = snap.spans(f"{span_prefix}.batch")
    tail = batch_spans[1:] or batch_spans
    per_batch = sum(s.sim_duration for s in tail) / len(tail) if tail else 0.0
    return SecureRunResult(
        spec=spec,
        measured_batches=batches,
        measured_samples=samples,
        sharing_offline_s=sharing,
        setup_offline_s=max(0.0, offline_total - sharing),
        per_batch_online_s=per_batch,
        server_bytes=sum(
            int(snap.counter("comm.bytes", channel=link.label))
            for link in ctx.server_links.values()
        ),
        raw_comm_bytes=int(snap.counter("comm.compression.raw_bytes")),
        wire_comm_bytes=int(snap.counter("comm.compression.wire_bytes")),
        losses=losses,
    )


def run_secure(
    model_name: str,
    dataset: str,
    config: FrameworkConfig,
    *,
    n_batches: int = 2,
    batch_size: int = 128,
    seed: int = 0,
    lr: float = 0.03125,
    full_scale: bool = False,
    audit: bool = False,
) -> SecureRunResult:
    """Train one secure grid cell for ``n_batches`` real batches."""
    x, y, spec = load_workload(
        model_name, dataset, n_batches=n_batches, batch_size=batch_size, seed=seed,
        full_scale=full_scale,
    )
    ctx = SecureContext.create(config)
    if audit:
        ctx.attach_recorder()
    model = build_secure_model(ctx, spec)
    trainer = SecureTrainer(ctx, model, lr=lr, monitor_loss=False)
    report = trainer.train(x, y, epochs=1, batch_size=batch_size)
    res = _secure_result_from_snapshot(
        ctx,
        spec,
        batches=report.batches,
        samples=report.dataset_samples,
        span_prefix="train",
        losses=report.losses,
    )
    if audit:
        res.wire = audit_context(ctx)
    return res


def run_plain(
    model_name: str,
    dataset: str,
    device: str,
    *,
    n_batches: int = 2,
    batch_size: int = 128,
    seed: int = 0,
    lr: float = 0.03125,
    tensor_core: bool = False,
    full_scale: bool = False,
) -> PlainRunResult:
    """Train one plain grid cell on 'cpu' or 'gpu' timing."""
    x, y, spec = load_workload(
        model_name, dataset, n_batches=n_batches, batch_size=batch_size, seed=seed,
        full_scale=full_scale,
    )
    timer = PlainTimer(device, tensor_core=tensor_core)
    model = build_plain_model(spec, seed=seed)
    trainer = PlainTrainer(model, timer, lr=lr)
    report = trainer.train(x, y, epochs=1, batch_size=batch_size)
    return PlainRunResult(
        spec=spec,
        measured_batches=report.batches,
        per_batch_s=report.seconds / max(report.batches, 1),
        losses=report.losses,
    )


def run_secure_inference(
    model_name: str,
    dataset: str,
    config: FrameworkConfig,
    *,
    n_batches: int = 2,
    batch_size: int = 128,
    seed: int = 0,
    audit: bool = False,
) -> SecureRunResult:
    """Forward-only secure run (Fig. 13)."""
    x, _y, spec = load_workload(
        model_name, dataset, n_batches=n_batches, batch_size=batch_size, seed=seed
    )
    ctx = SecureContext.create(config)
    if audit:
        ctx.attach_recorder()
    model = build_secure_model(ctx, spec)
    rep = secure_predict(ctx, model, x, batch_size=batch_size, max_batches=n_batches)
    res = _secure_result_from_snapshot(
        ctx,
        spec,
        batches=rep.batches,
        samples=rep.dataset_samples,
        span_prefix="infer",
        losses=[],
    )
    if audit:
        res.wire = audit_context(ctx)
    return res


@dataclass
class ServingRunResult:
    """One serving benchmark: many ragged clients through one context."""

    spec: WorkloadSpec
    clients: int
    requests: int
    rows: int
    batches: int
    padded_rows: int
    retried_batches: int
    offline_s: float
    online_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    wire: object | None = None

    @property
    def rows_per_online_s(self) -> float:
        return self.rows / self.online_s if self.online_s else 0.0

    @property
    def batch_fill(self) -> float:
        total = self.rows + self.padded_rows
        return self.rows / total if total else 0.0


def run_serving(
    model_name: str,
    dataset: str,
    config: FrameworkConfig,
    *,
    clients: int = 4,
    n_batches: int = 2,
    batch_size: int = 128,
    seed: int = 0,
    audit: bool = False,
) -> ServingRunResult:
    """Serve the workload's rows as ragged multi-client requests.

    The same rows :func:`run_secure_inference` measures, but arriving as
    many small requests from ``clients`` logical clients instead of one
    pre-batched array — the serving layer coalesces them back into
    fixed-shape batches, so the delta against the plain inference run is
    the queueing/padding overhead of the service, and the p50/p95/p99
    come straight out of the request-latency histogram.
    """
    from repro.serve import Replica

    x, _y, spec = load_workload(
        model_name, dataset, n_batches=n_batches, batch_size=batch_size, seed=seed
    )
    ctx = SecureContext.create(config)
    model = build_secure_model(ctx, spec)
    server = Replica(
        ctx, model, max_batch=batch_size,
        queue_rows=max(x.shape[0], batch_size), audit=audit,
    )
    rng = np.random.default_rng(seed)
    lo = 0
    requests = 0
    while lo < x.shape[0]:
        rows = min(int(rng.integers(1, batch_size + 1)), x.shape[0] - lo)
        server.submit(f"client{requests % clients}", x[lo : lo + rows])
        lo += rows
        requests += 1
    server.drain()
    rep = server.report()
    return ServingRunResult(
        spec=spec,
        clients=clients,
        requests=requests,
        rows=rep.served_rows,
        batches=rep.batches,
        padded_rows=rep.padded_rows,
        retried_batches=rep.retried_batches,
        offline_s=rep.offline_s,
        online_s=rep.online_s,
        p50_s=rep.latency["p50"],
        p95_s=rep.latency["p95"],
        p99_s=rep.latency["p99"],
        wire=server.wire_audit() if audit else None,
    )


@dataclass
class FleetRunResult:
    """One fleet benchmark: many logical clients over N routed replicas."""

    spec: WorkloadSpec
    replicas: int
    placement: str
    clients: int
    requests: int
    rows: int
    batches: int
    rerouted: int
    crashes: int
    dropped: int
    rejected: int
    offline_s: float
    online_s: float  # fleet makespan: max over replica online clocks
    p50_s: float
    p95_s: float
    p99_s: float
    per_replica: dict
    chaos_seed: int | None = None
    conformance: dict | None = None  # replica -> None (ok) | divergence str

    @property
    def rows_per_online_s(self) -> float:
        return self.rows / self.online_s if self.online_s else 0.0

    @property
    def conformance_ok(self) -> bool | None:
        if self.conformance is None:
            return None
        return all(v is None for v in self.conformance.values())


def run_fleet(
    model_name: str,
    dataset: str,
    config: FrameworkConfig,
    *,
    replicas: int = 4,
    clients: int = 1000,
    placement: str = "least-depth",
    batch_size: int = 128,
    seed: int = 0,
    chaos_seed: int | None = None,
    conformance: bool = False,
) -> FleetRunResult:
    """Serve ``clients`` small requests through a routed replica fleet.

    Each logical client submits one 1–4 row request drawn (cyclically)
    from the workload's rows; the fleet shards them across ``replicas``
    deployments.  ``online_s`` is the fleet *makespan* — the max over
    each replica's own online clock — so throughput scaling across
    replica counts reads straight off ``rows_per_online_s``.

    With ``chaos_seed`` set, replica 0 runs under a
    :class:`~repro.faults.FaultPlan` that crashes ``server1`` mid-serve
    while the fleet retry budget is zero, forcing the crash through the
    router's recovery path (drain back, respawn, re-route) — the cell
    proves the zero-drop contract, not peak throughput.  With
    ``conformance`` on, every replica's journal is replayed standalone
    and diffed bit-for-bit (requires the audit recorder, so it is
    enabled automatically).
    """
    from repro.faults import FaultPlan, PartyCrash
    from repro.serve.fleet import SecureServingFleet
    from repro.util.errors import QueueFullError

    x, _y, spec = load_workload(
        model_name, dataset, n_batches=2, batch_size=batch_size, seed=seed
    )
    replica_config = None
    request_retries = 2
    if chaos_seed is not None:
        plan = FaultPlan(
            seed=chaos_seed, crashes=(PartyCrash("server1", at_step=3),)
        )
        request_retries = 0

        def replica_config(index, cfg):
            return cfg.but(fault_plan=plan) if index == 0 else cfg

    # Pre-generate the request stream so the admission bound can be sized
    # to the offered load: the cell measures sharded serving throughput,
    # not admission control, so backpressure-driven partial batches would
    # only blur the scaling curve.
    rng = np.random.default_rng(seed)
    stream = []
    lo = 0
    for i in range(clients):
        rows = int(rng.integers(1, 5))
        if lo + rows > x.shape[0]:
            lo = 0
        stream.append((f"client{i}", x[lo : lo + rows]))
        lo += rows
    total_rows = sum(chunk.shape[0] for _c, chunk in stream)
    fleet = SecureServingFleet(
        lambda ctx: build_secure_model(ctx, spec),
        replicas=replicas,
        config=config,
        replica_config=replica_config,
        placement=placement,
        max_batch=batch_size,
        queue_rows=max(total_rows, batch_size),
        request_retries=request_retries,
        audit=conformance,
    )
    for client, chunk in stream:
        try:
            fleet.submit(client, chunk)
        except QueueFullError:  # retryable backpressure: serve, then resubmit
            fleet.pump()
            fleet.submit(client, chunk)
    fleet.drain()
    rep = fleet.report()
    per_replica = {
        name: {
            "served_requests": r.served_requests,
            "served_rows": r.served_rows,
            "batches": r.batches,
            "padded_rows": r.padded_rows,
            "retried_batches": r.retried_batches,
            "provisioned_triplets": r.provisioned_triplets,
            "offline_s": r.offline_s,
            "online_s": r.online_s,
            "p95_s": r.latency.get("p95", 0.0),
        }
        for name, r in rep.replicas.items()
    }
    return FleetRunResult(
        spec=spec,
        replicas=replicas,
        placement=placement,
        clients=clients,
        requests=rep.served_requests + rep.pending_requests,
        rows=rep.served_rows,
        batches=rep.batches,
        rerouted=rep.rerouted_requests,
        crashes=rep.replica_crashes,
        dropped=rep.dropped_requests,
        rejected=rep.rejected_requests,
        offline_s=rep.offline_s,
        online_s=rep.online_s,
        p50_s=rep.latency["p50"],
        p95_s=rep.latency["p95"],
        p99_s=rep.latency["p99"],
        per_replica=per_replica,
        chaos_seed=chaos_seed,
        conformance=fleet.verify_conformance() if conformance else None,
    )


def run_plain_inference(
    model_name: str,
    dataset: str,
    device: str,
    *,
    n_batches: int = 2,
    batch_size: int = 128,
    seed: int = 0,
    tensor_core: bool = False,
) -> PlainRunResult:
    x, _y, spec = load_workload(
        model_name, dataset, n_batches=n_batches, batch_size=batch_size, seed=seed
    )
    timer = PlainTimer(device, tensor_core=tensor_core)
    model = build_plain_model(spec, seed=seed)
    trainer = PlainTrainer(model, timer)
    _, seconds = trainer.predict(x, batch_size=batch_size, max_batches=n_batches)
    return PlainRunResult(
        spec=spec,
        measured_batches=n_batches,
        per_batch_s=seconds / max(n_batches, 1),
        losses=[],
    )


WORKLOAD_FIGURE_MODELS: tuple[str, ...] = ("attention", "recsys")


@dataclass
class WorkloadFigureRow:
    """One (model, mode) cell of the BENCH_workloads.json suite."""

    model: str
    mode: str  # "train" | "infer"
    compression: bool
    online_s: float
    offline_s: float
    comm_bytes: int
    comm_messages: int
    raw_comm_bytes: int
    wire_comm_bytes: int


def run_workload_figures(
    config: FrameworkConfig,
    *,
    n_batches: int = 2,
    batch_size: int = 32,
    seed: int = 0,
    lr: float = 0.03125,
) -> list[WorkloadFigureRow]:
    """The attention/recsys workload suite behind ``--workloads``.

    Each workload model contributes a training row and an inference row;
    recsys additionally runs inference with ``compression=False`` so the
    pair of rows *measures* what CSR delta compression earns on top of
    static-operand reuse: nothing, the rows are byte-equal (the embedding
    table itself is opened once and never re-sent, and the compressor
    does not fire on the streams that remain — see DESIGN §7c).
    ``benchmarks/test_workload_regression.py`` guards
    the committed reference against message-count and makespan drift.
    """
    import dataclasses

    rows: list[WorkloadFigureRow] = []
    for model_name in WORKLOAD_FIGURE_MODELS:
        x, y, spec = load_workload(
            model_name, "SYNTHETIC", n_batches=n_batches, batch_size=batch_size, seed=seed
        )
        runs: list[tuple[str, bool]] = [("train", config.compression), ("infer", config.compression)]
        if model_name == "recsys":
            runs.append(("infer", not config.compression))
        for mode, compression in runs:
            cfg = dataclasses.replace(config, compression=compression)
            ctx = SecureContext.create(cfg)
            model = build_secure_model(ctx, spec)
            if mode == "train":
                SecureTrainer(ctx, model, lr=lr, monitor_loss=False).train(
                    x, y, epochs=1, batch_size=batch_size
                )
            else:
                secure_predict(ctx, model, x, batch_size=batch_size)
            snap = ctx.telemetry.snapshot()
            rows.append(
                WorkloadFigureRow(
                    model=model_name,
                    mode=mode,
                    compression=compression,
                    online_s=snap.gauge("phase.sim_seconds", clock="online"),
                    offline_s=snap.gauge("phase.sim_seconds", clock="offline"),
                    comm_bytes=sum(
                        int(snap.counter("comm.bytes", channel=link.label))
                        for link in ctx.server_links.values()
                    ),
                    comm_messages=sum(
                        int(snap.counter("comm.messages", channel=link.label))
                        for link in ctx.server_links.values()
                    ),
                    raw_comm_bytes=int(snap.counter("comm.compression.raw_bytes")),
                    wire_comm_bytes=int(snap.counter("comm.compression.wire_bytes")),
                )
            )
    return rows
