"""Secure inference driver (forward pass only).

The paper studies inference as "essentially a sub-process of the
training protocol (the forward pass)" (Section 7.2, Fig. 13); this
driver runs exactly that — one offline dataset-sharing step, then
forward-only online batches — and produces the same phase accounting as
training so the two speedup figures are directly comparable.

Every batch goes through :func:`run_secure_batch`, which is also the
execution core of the serving layer (:mod:`repro.serve`): one fixed-shape
forward pass with the fault-retry loop around it.  Ragged tails are
padded to the batch shape and trimmed after decoding (mask-and-trim), so
label-cached offline material always sees one shape
and no input row is ever silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tensor import SharedTensor
from repro.faults.blame import PartyFailure
from repro.faults.recovery import respawn_party
from repro.telemetry import maybe_span
from repro.util.errors import ConfigError


@dataclass
class InferenceReport:
    """Cost accounting for one inference run.

    ``samples`` counts *served* input rows (equal to ``dataset_samples``
    unless ``max_batches`` truncated the run); ``padded_rows`` counts the
    zero rows appended to ragged tail batches (computed, then trimmed);
    ``batch_online_s`` holds only each batch's *successful* attempt, with
    the online time burned by failed attempts and party restarts
    reported separately as ``retry_online_s`` so chaos runs don't inflate
    ``marginal_online_s`` (and the Fig. 13 extrapolation built on it).
    Each entry is how far the batch moved the online makespan: a batch
    whose work the clock backfilled into earlier batches' idle gaps
    reads less than its own critical path, and 0 when it fits entirely.
    """

    batches: int
    samples: int
    dataset_samples: int
    offline_s: float
    online_s: float
    sharing_offline_s: float
    setup_offline_s: float
    server_bytes: int
    predictions: np.ndarray
    batch_online_s: list = field(default_factory=list)
    retried_batches: int = 0  # failed requests recovered by retry
    retry_online_s: float = 0.0  # online time burned by failed attempts + restarts
    padded_rows: int = 0  # zero rows appended to ragged tail batches

    @property
    def total_s(self) -> float:
        return self.offline_s + self.online_s

    @property
    def marginal_online_s(self) -> float:
        tail = self.batch_online_s[1:] or self.batch_online_s
        return sum(tail) / len(tail) if tail else 0.0

    def extrapolate(self, paper_samples: int, paper_batches: int) -> tuple[float, float]:
        scale = paper_samples / max(self.dataset_samples, 1)
        return (
            self.sharing_offline_s * scale + self.setup_offline_s,
            self.marginal_online_s * paper_batches,
        )


@dataclass
class BatchOutcome:
    """One served batch: decoded outputs plus its online-time split."""

    outputs: np.ndarray  # decoded (batch_rows, n_out), padding not yet trimmed
    online_s: float  # how far the successful attempt moved the online makespan
    retry_online_s: float  # failed attempts + recovery (0.0 on a clean batch)
    retries: int


def model_output_width(model) -> int:
    """Output feature count of a layered model (0 when undeclared).

    Walks the layer stack backwards for the innermost ``out_features``
    (activations and pooling preserve width, so the last dense layer
    decides).  Used to shape empty prediction arrays so downstream
    ``argmax(axis=1)`` works on zero-sample runs too.
    """
    for layer in reversed(getattr(model, "layers", [])):
        width = getattr(layer, "out_features", None)
        if width is not None:
            return int(width)
    return 0


def run_secure_batch(
    ctx,
    model,
    batch: SharedTensor,
    *,
    batch_label: str = "0",
    max_request_retries: int = 2,
) -> BatchOutcome:
    """One fixed-shape secure forward pass with the fault-retry loop.

    Shared by :func:`secure_predict` and the serving layer
    (:class:`repro.serve.Replica`).  A batch request that
    dies with a :class:`~repro.faults.blame.PartyFailure` (crashed
    server, exhausted retry budget on the link) is retried up to
    ``max_request_retries`` times after restarting the blamed party —
    the stateless-request analogue of the trainer's checkpoint recovery.
    The forward pass has no persistent state, so a retried batch is
    bit-identical to an undisturbed one.

    Timing: ``online_s`` is measured across the *successful* attempt
    only; everything else the batch burned (failed attempts, restart
    penalties, backoff) is returned as ``retry_online_s``.
    """
    telemetry = getattr(ctx, "telemetry", None)
    injector = getattr(ctx, "fault_injector", None)
    bmark = ctx.mark()
    attempts = 0
    retries = 0
    while True:
        if injector is not None:
            injector.advance_step(1)
        # New online step per attempt: cached triplets issue fresh
        # shares (a retried request replays the same op streams).
        ctx.begin_batch()
        amark = ctx.mark()
        try:
            with maybe_span(telemetry, "infer.batch", clock="online", batch=batch_label):
                pred = model.forward(batch, training=False)
            break
        except PartyFailure as failure:
            attempts += 1
            if attempts > max_request_retries:
                raise
            retries += 1
            with maybe_span(
                telemetry, "infer.request_retry", clock="online", party=failure.party
            ):
                respawn_party(ctx, failure.party)
                # The retry is issued once the restart is done: without
                # this barrier the surviving server's share of it would
                # backfill the idle gap the restart leaves on its
                # resources, before the attempt's mark, and the retried
                # batch would read faster than a clean one.
                ctx.online_clock.advance_all()
            if telemetry is not None:
                telemetry.counter(
                    "faults.requests_retried", "inference batch requests retried"
                ).inc(1, party=failure.party)
        finally:
            ctx.end_batch()
    outputs = pred.decode()
    online_s = ctx.since(amark).online_s
    total_s = ctx.since(bmark).online_s
    return BatchOutcome(
        outputs=outputs,
        online_s=online_s,
        retry_online_s=max(0.0, total_s - online_s),
        retries=retries,
    )


def secure_predict(
    ctx,
    model,
    x: np.ndarray,
    *,
    batch_size: int = 128,
    max_batches: int | None = None,
    max_request_retries: int = 2,
) -> InferenceReport:
    """Secure forward passes over ``x``; predictions decoded client-side.

    Every input row is served: a ragged tail (``n % batch_size != 0``,
    including ``n < batch_size``) is zero-padded to the full batch shape
    — both servers' shares pad with zeros, so the pad rows decode to 0
    and label-cached triplets still match — and the pad rows are
    trimmed from the decoded output.  ``report.predictions`` therefore
    has exactly ``x.shape[0]`` rows (``max_batches`` permitting), and an
    empty input yields a ``(0, n_out)`` array.

    Fault tolerance: see :func:`run_secure_batch`.
    """
    if batch_size < 1:
        raise ConfigError(f"secure_predict: batch_size must be >= 1, got {batch_size!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"secure_predict expects 2-D input, got shape {x.shape}")
    telemetry = getattr(ctx, "telemetry", None)
    n = x.shape[0]
    ctx.online_clock.advance_all()  # nothing of this call runs before it was made
    start = ctx.mark()
    with maybe_span(telemetry, "infer.share_dataset", clock="offline"):
        xs = SharedTensor.from_plain(ctx, x, label="infer/x")
    sharing_offline = ctx.since(start).offline_s
    outputs = []
    batch_online = []
    batches = 0
    samples = 0
    retried = 0
    retry_online = 0.0
    padded_rows = 0
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        rows = hi - lo
        pad = batch_size - rows
        batch = xs.row_slice(lo, hi, pad_to=batch_size)
        outcome = run_secure_batch(
            ctx,
            model,
            batch,
            batch_label=str(batches),
            max_request_retries=max_request_retries,
        )
        outputs.append(outcome.outputs[:rows])
        batch_online.append(outcome.online_s)
        retry_online += outcome.retry_online_s
        retried += outcome.retries
        if pad:
            padded_rows += pad
            if telemetry is not None:
                telemetry.counter(
                    "infer.padded_rows", "zero rows appended to ragged tail batches"
                ).inc(pad)
        batches += 1
        samples += rows
        if max_batches is not None and batches >= max_batches:
            break
    delta = ctx.since(start)
    if outputs:
        predictions = np.concatenate(outputs, axis=0)
    else:
        predictions = np.empty((0, model_output_width(model)))
    return InferenceReport(
        batches=batches,
        samples=samples,
        dataset_samples=n,
        offline_s=delta.offline_s,
        online_s=delta.online_s,
        sharing_offline_s=sharing_offline,
        setup_offline_s=max(0.0, delta.offline_s - sharing_offline),
        server_bytes=delta.server_bytes,
        predictions=predictions,
        batch_online_s=batch_online,
        retried_batches=retried,
        retry_online_s=retry_online,
        padded_rows=padded_rows,
    )
