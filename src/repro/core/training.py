"""Secure training driver with phase/traffic reporting and recovery.

:class:`SecureTrainer` follows the paper's offline/online split (Figs.
2-3): the client encrypts (shares) the *whole dataset once* and uploads
it — that is the offline phase, plus the lazy one-time generation of
each op stream's Beaver material — and the servers then iterate batches
over their shares, which is the online phase.  (Fig. 2's breakdown is
exactly this structure: a one-shot "generate encrypted data" step
followed by per-step server compute/communication.)

Fault tolerance (``repro.faults``): when the context carries a
:class:`~repro.faults.injector.FaultInjector` and checkpointing is
enabled, the trainer snapshots the model's shares every
``checkpoint_every`` batches via :mod:`repro.core.checkpoint` and, on a
:class:`~repro.faults.blame.PartyFailure` (crashed server, exhausted
retry budget), restarts the blamed party, restores the last checkpoint
and replays from its batch cursor.  Replayed batches reuse the cached
Beaver material, so a recovered run is bit-identical to a fault-free
one — the chaos suite asserts exactly that.

The report carries the accounting the evaluation section uses: offline
and online simulated seconds, occupancy (Table 3), inter-server traffic
and compression savings (Fig. 16), per-batch marginal costs for
paper-scale extrapolation, and the recovery counters.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.checkpoint import load_model, save_model
from repro.core.tensor import SharedTensor
from repro.faults.blame import PartyFailure
from repro.faults.recovery import respawn_party
from repro.telemetry import maybe_span
from repro.util.errors import ConfigError


@dataclass
class TrainReport:
    """Cost and progress accounting for one training run."""

    batches: int = 0
    samples: int = 0
    dataset_samples: int = 0
    offline_s: float = 0.0
    online_s: float = 0.0
    sharing_offline_s: float = 0.0  # one-shot dataset encryption/upload
    setup_offline_s: float = 0.0  # lazy triplet-stream generation
    server_bytes: int = 0
    uplink_bytes: int = 0
    raw_comm_bytes: int = 0
    wire_comm_bytes: int = 0
    losses: list[float] = field(default_factory=list)
    batch_online_s: list[float] = field(default_factory=list)
    # fault-recovery accounting (zero on a fault-free run)
    party_restarts: int = 0
    batches_replayed: int = 0
    checkpoints_written: int = 0

    @property
    def total_s(self) -> float:
        return self.offline_s + self.online_s

    @property
    def occupancy(self) -> float:
        """Online fraction of total simulated time (Table 3's metric)."""
        return self.online_s / self.total_s if self.total_s else 0.0

    @property
    def marginal_online_s(self) -> float:
        """Steady-state online cost per batch (first batch excluded —
        lazy placement decisions make it atypical)."""
        tail = self.batch_online_s[1:] or self.batch_online_s
        return sum(tail) / len(tail) if tail else 0.0

    @property
    def compression_savings(self) -> float:
        if self.raw_comm_bytes == 0:
            return 0.0
        return 1.0 - self.wire_comm_bytes / self.raw_comm_bytes

    def extrapolate(self, paper_samples: int, paper_batches: int) -> tuple[float, float]:
        """(offline_s, online_s) projected to paper-scale data.

        Dataset sharing scales linearly with sample count; triplet setup
        is one-time; online scales with batch count.
        """
        scale = paper_samples / max(self.dataset_samples, 1)
        offline = self.sharing_offline_s * scale + self.setup_offline_s
        online = self.marginal_online_s * paper_batches
        return offline, online


class SecureTrainer:
    """Batch-wise secure SGD over a model built on a SecureContext.

    ``checkpoint_every=K`` turns on share checkpointing (and with it,
    party-crash recovery) every K batches; ``checkpoint_dir`` defaults
    to a fresh temporary directory.  ``max_restarts`` bounds how many
    :class:`~repro.faults.blame.PartyFailure` recoveries one ``train``
    call attempts before re-raising.
    """

    def __init__(
        self,
        ctx,
        model,
        *,
        lr: float = 0.125,
        monitor_loss: bool = True,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | Path | None = None,
        max_restarts: int = 2,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {max_restarts}")
        self.ctx = ctx
        self.model = model
        self.lr = float(lr)
        self.monitor_loss = monitor_loss
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.max_restarts = max_restarts

    # -- recovery helpers -------------------------------------------------------

    def _checkpoint_path(self) -> Path:
        if self.checkpoint_dir is None:
            self.checkpoint_dir = Path(tempfile.mkdtemp(prefix="repro-ckpt-"))
        return self.checkpoint_dir

    def _save_checkpoint(self, report: TrainReport, cursor: int) -> None:
        save_model(
            self.model,
            self._checkpoint_path(),
            extra={"batch": cursor, "losses": list(report.losses)},
        )
        report.checkpoints_written += 1

    def _recover(self, report: TrainReport, failure: PartyFailure, cursor: int) -> int:
        """Restart the blamed party and restore the last checkpoint.

        Returns the batch cursor to resume from.  Raises the original
        failure when recovery is off or the restart budget is spent.
        """
        if self.checkpoint_every is None or report.party_restarts >= self.max_restarts:
            raise failure
        ctx = self.ctx
        telemetry = getattr(ctx, "telemetry", None)
        with maybe_span(telemetry, "train.recovery", clock="online", party=failure.party):
            respawn_party(ctx, failure.party)
            extra = load_model(self.model, self._checkpoint_path())
        resume = int(extra.get("batch", 0))
        report.party_restarts += 1
        replayed = max(0, cursor - resume)
        report.batches_replayed += replayed
        if telemetry is not None:
            telemetry.counter(
                "faults.batches_replayed", "batches re-run after checkpoint restore"
            ).inc(replayed or 0, party=failure.party)
        # rewind the per-batch records the replay will append again
        report.losses = list(extra.get("losses", []))[:resume]
        del report.batch_online_s[resume:]
        return resume

    def train(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 1,
        batch_size: int = 128,
        max_batches: int | None = None,
    ) -> TrainReport:
        """Run secure SGD; ``x`` is (n, features), ``y`` is (n, outputs)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ConfigError(
                f"train expects 2-D x, y with matching rows; got {x.shape} and {y.shape}"
            )
        if x.shape[0] < batch_size:
            raise ConfigError(
                f"need at least one full batch: {x.shape[0]} samples < batch {batch_size}"
            )
        report = TrainReport(dataset_samples=x.shape[0])
        telemetry = getattr(self.ctx, "telemetry", None)
        injector = getattr(self.ctx, "fault_injector", None)
        start_mark = self.ctx.mark()
        comp_start = self.ctx.compression_stats

        # ---- offline: encrypt + upload the dataset once ----------------------
        with maybe_span(telemetry, "train.share_dataset", clock="offline"):
            xs = SharedTensor.from_plain(self.ctx, x, label="dataset/x")
            ys = SharedTensor.from_plain(self.ctx, y, label="dataset/y")
        report.sharing_offline_s = self.ctx.since(start_mark).offline_s

        # ---- offline: batched triplet provisioning (pool_size > 0) -----------
        # Runs on the offline clock, so refills overlap the online steps
        # below by the two-clock construction; counted in setup_offline_s.
        provision = getattr(self.ctx, "provision_for", None)
        if provision is not None:
            provision(self.model, batch_size, training=True)

        # ---- online: iterate batches over the shares -------------------------
        offsets = [
            lo
            for _epoch in range(epochs)
            for lo in range(0, x.shape[0] - batch_size + 1, batch_size)
        ]
        if max_batches is not None:
            offsets = offsets[:max_batches]
        if self.checkpoint_every is not None and offsets:
            self._save_checkpoint(report, 0)  # crash-in-batch-0 is recoverable
        cursor = 0
        while cursor < len(offsets):
            lo = offsets[cursor]
            if injector is not None:
                injector.advance_step(1)
            # New online step (also on replay): cached triplets issue
            # fresh shares, and double-consume within the step raises.
            begin_batch = getattr(self.ctx, "begin_batch", None)
            if begin_batch is not None:
                begin_batch()
            batch_mark = self.ctx.mark()
            try:
                with maybe_span(
                    telemetry, "train.batch", clock="online", batch=str(cursor)
                ):
                    xb = xs.row_slice(lo, lo + batch_size)
                    yb = ys.row_slice(lo, lo + batch_size)
                    pred = self.model.train_batch(xb, yb, self.lr)
            except PartyFailure as failure:
                cursor = self._recover(report, failure, cursor)
                continue
            report.batch_online_s.append(self.ctx.since(batch_mark).online_s)
            if self.monitor_loss:
                err = pred.decode() - y[lo : lo + batch_size]
                report.losses.append(float(np.mean(err**2)))
            cursor += 1
            if self.checkpoint_every is not None and cursor % self.checkpoint_every == 0:
                self._save_checkpoint(report, cursor)

        report.batches = len(offsets)
        report.samples = report.batches * batch_size
        # Under the dataflow runtime the batches above only *deferred*
        # their tasks; commit the schedule so the report's makespans are
        # the scheduled ones.  (Per-batch batch_online_s stays the
        # program-order estimate — overlapped batches have no disjoint
        # per-batch attribution.)
        finalize = getattr(self.ctx, "finalize_runtime", None)
        if finalize is not None:
            finalize()
        delta = self.ctx.since(start_mark)
        report.offline_s = delta.offline_s
        report.online_s = delta.online_s
        report.setup_offline_s = max(0.0, report.offline_s - report.sharing_offline_s)
        report.server_bytes = delta.server_bytes
        report.uplink_bytes = delta.uplink_bytes
        comp_end = self.ctx.compression_stats
        report.raw_comm_bytes = comp_end.raw_bytes - comp_start.raw_bytes
        report.wire_comm_bytes = comp_end.wire_bytes - comp_start.wire_bytes
        return report
