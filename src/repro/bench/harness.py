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
from typing import TYPE_CHECKING

import numpy as np

from repro.audit.wire import audit_context
from repro.bench.workloads import WorkloadSpec, build_plain_model, build_secure_model, load_workload
from repro.baselines.plain import PlainTimer, PlainTrainer
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.training import SecureTrainer
from repro.simgpu.cost import V100_FP32_SPEC, DeviceSpec

if TYPE_CHECKING:
    from repro.serve.fleet import FleetReport


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
    gpu_spec: DeviceSpec = V100_FP32_SPEC,
    full_scale: bool = False,
) -> PlainRunResult:
    """Train one plain grid cell on 'cpu' or 'gpu' (at ``gpu_spec``) timing."""
    x, y, spec = load_workload(
        model_name, dataset, n_batches=n_batches, batch_size=batch_size, seed=seed,
        full_scale=full_scale,
    )
    timer = PlainTimer(device, gpu_spec=gpu_spec)
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
    full_scale: bool = False,
    audit: bool = False,
) -> SecureRunResult:
    """Forward-only secure run (Fig. 13)."""
    x, _y, spec = load_workload(
        model_name, dataset, n_batches=n_batches, batch_size=batch_size, seed=seed,
        full_scale=full_scale,
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


def run_fleet(
    model_name: str,
    dataset: str,
    config: FrameworkConfig,
    *,
    replicas: int = 4,
    clients: int = 1000,
    batch_size: int = 128,
    seed: int = 0,
) -> FleetReport:
    """Serve ``clients`` small requests through a least-depth replica fleet.

    Each logical client submits one 1–4 row request drawn (cyclically)
    from the workload's rows; the fleet shards them across ``replicas``
    deployments.  Every replica's queue holds the whole stream, so the
    run measures sharded serving, not admission control.  Returns the
    fleet's :class:`~repro.serve.fleet.FleetReport`, whose ``online_s``
    is the fleet *makespan* (the max over the replicas' online clocks).
    """
    from repro.serve.fleet import SecureServingFleet

    x, _y, spec = load_workload(
        model_name, dataset, n_batches=2, batch_size=batch_size, seed=seed
    )
    rng = np.random.default_rng(seed)
    stream = []
    lo = 0
    for i in range(clients):
        rows = int(rng.integers(1, 5))
        if lo + rows > x.shape[0]:
            lo = 0
        stream.append((f"client{i}", x[lo : lo + rows]))
        lo += rows
    fleet = SecureServingFleet(
        lambda ctx: build_secure_model(ctx, spec),
        replicas=replicas,
        config=config,
        max_batch=batch_size,
        queue_rows=max(sum(chunk.shape[0] for _c, chunk in stream), batch_size),
    )
    for client, chunk in stream:
        fleet.submit(client, chunk)
    fleet.drain()
    return fleet.report()
