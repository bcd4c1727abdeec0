"""Differential conformance: every model × config agrees with plain.

CrypTen's discipline, applied here: each secure model is held to its
plaintext twin in :mod:`repro.baselines.plain` as reference semantics.
A conformance case builds the secure model under one configuration,
copies its decoded initial weights into the plain twin, runs both on
the same data, and asserts the outputs agree within fixed-point
tolerance.  Sweeping the six paper models plus the attention/recsys
workloads across the optimization axes (triplet pool, delta
compression, reliable transport under a chaos seed, dataflow
scheduling) is the regression oracle for "no optimization changed the
arithmetic".  Opening every value once (one mask per value, DESIGN
§5b) is not an axis: it is on in every cell, so each axis is swept
*with* it, and a case of three or more batches reuses every weight's
``F`` at least twice.

Two strengths of agreement:

* **tolerance** (plain vs secure): truncation rounds each product, so
  secure outputs match plain only to ~2^-frac_bits per operation;
* **bit-identity** (secure vs secure): knobs in
  :data:`BIT_IDENTICAL_AXES` change only *costs* (bytes, seconds), so
  flipping them must reproduce the baseline predictions bit-for-bit.
  The pool axis is excluded — pooled provisioning draws triplets from a
  different RNG stream and truncation rounding is share-dependent.

Geometry is deliberately tiny (8x8 images, hidden widths of 6-8) so the
full sweep stays in tier-1 test budgets; conformance is about agreement,
not throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.audit.transcript import Transcript
from repro.audit.wire import WireAuditReport, audit_transcript
from repro.baselines.plain import (
    PlainAttention,
    PlainCNN,
    PlainLinearRegression,
    PlainLogisticRegression,
    PlainMLP,
    PlainRecsys,
    PlainRNN,
    PlainSVM,
    PlainTimer,
    PlainTrainer,
)
from repro.core.attention import SecureAttention
from repro.core.config import FrameworkConfig
from repro.core.inference import secure_predict
from repro.core.models import (
    SecureCNN,
    SecureLinearRegression,
    SecureLogisticRegression,
    SecureMLP,
    SecureRNN,
    SecureSVM,
)
from repro.core.recsys import SecureRecsys
from repro.core.training import SecureTrainer
from repro.faults.plan import FaultPlan
from repro.util.errors import AuditError, ConfigError

#: The six paper models (Section 7.1) plus the attention and
#: recommendation workloads, by bench-suite name.
CONFORMANCE_MODELS = ("MLP", "CNN", "RNN", "linear", "logistic", "SVM", "attention", "recsys")

#: Config axes swept against the baseline.  Values are ``.but()``
#: overrides on the ParSecureML preset.
CONFORMANCE_AXES: dict[str, dict[str, Any]] = {
    "baseline": {},
    "pool": {"pool_size": 4},
    "no_compression": {"compression": False},
    "chaos": {"fault_plan": FaultPlan(seed=7, drop=0.04, delay=0.04)},
    "dataflow": {"runtime": "dataflow"},
}

#: Axes whose knobs are cost-only: secure predictions must be
#: bit-identical to the baseline axis, not merely within tolerance.
BIT_IDENTICAL_AXES = ("no_compression", "chaos", "dataflow")

#: Fixed-point agreement ceilings (frac_bits=13 -> ~1.2e-4 resolution
#: per truncation; training compounds it across batches and layers).
FORWARD_TOL = 5e-3
TRAIN_TOL = 2.5e-2


@dataclass(frozen=True)
class ConformanceCase:
    """One cell of the sweep: a model under a config axis and backend."""

    model: str
    axis: str
    seed: int = 0
    batch_size: int = 16
    n_batches: int = 2
    train: bool = False
    backend: str = "beaver2pc"

    def __post_init__(self):
        if self.model not in CONFORMANCE_MODELS:
            raise ConfigError(f"unknown conformance model {self.model!r}")
        if self.axis not in CONFORMANCE_AXES:
            raise ConfigError(f"unknown conformance axis {self.axis!r}")
        from repro.protocols import available_backends

        if self.backend not in available_backends():
            raise ConfigError(
                f"unknown protocol backend {self.backend!r}; "
                f"available: {available_backends()}"
            )

    @property
    def name(self) -> str:
        mode = "train" if self.train else "infer"
        suffix = "" if self.backend == "beaver2pc" else f"/{self.backend}"
        return f"{self.model}/{self.axis}/{mode}{suffix}"

    def config(self) -> FrameworkConfig:
        return FrameworkConfig.parsecureml(
            seed=self.seed, backend=self.backend, **CONFORMANCE_AXES[self.axis]
        )

    @property
    def tol(self) -> float:
        return TRAIN_TOL if self.train else FORWARD_TOL


@dataclass
class ConformanceResult:
    """Secure-vs-plain verdict for one case."""

    case: ConformanceCase
    max_abs_err: float
    tol: float
    predictions: np.ndarray = field(repr=False)
    transcript: Transcript | None = field(default=None, repr=False)
    wire: WireAuditReport | None = None
    #: ``mpc.mask_reuse.hits`` by scope: openings served instead of sent,
    #: from earlier in the step / of an unchanged weight from an earlier one
    served: dict[str, int] = field(default_factory=dict)

    @property
    def agreed(self) -> bool:
        return self.max_abs_err <= self.tol

    def describe(self) -> str:
        verdict = "ok" if self.agreed else "DISAGREE"
        served = ", ".join(f"{scope}={n}" for scope, n in self.served.items())
        return (
            f"{self.case.name}: max|secure-plain|={self.max_abs_err:.2e} "
            f"(tol {self.tol:.0e}) -> {verdict}"
            + (f"; openings served: {served}" if any(self.served.values()) else "")
        )


def _tiny_workload(case: ConformanceCase) -> tuple[np.ndarray, np.ndarray, Callable, Callable]:
    """Tiny matched geometries: (x, y, build_secure(ctx), build_plain())."""
    rng = np.random.default_rng(1000 + case.seed)
    n = case.batch_size * case.n_batches
    m, s = case.model, case.seed

    def onehot(width: int) -> np.ndarray:
        y = np.zeros((n, width))
        y[np.arange(n), rng.integers(0, width, size=n)] = 1.0
        return y

    if m == "MLP":
        x = 0.5 * rng.standard_normal((n, 12))
        return (x, onehot(3),
                lambda ctx: SecureMLP(ctx, 12, hidden=(8,), n_out=3),
                lambda: PlainMLP(12, hidden=(8,), n_out=3, seed=s))
    if m == "CNN":
        x = 0.5 * rng.standard_normal((n, 8 * 8))
        return (x, onehot(3),
                lambda ctx: SecureCNN(ctx, (8, 8, 1), conv_channels=2,
                                      hidden=8, n_out=3, kernel=3),
                lambda: PlainCNN((8, 8, 1), conv_channels=2, hidden=8,
                                 n_out=3, kernel=3, seed=s))
    if m == "RNN":
        x = 0.5 * rng.standard_normal((n, 3 * 4))
        return (x, onehot(3),
                lambda ctx: SecureRNN(ctx, 3, 4, hidden=6, n_out=3),
                lambda: PlainRNN(3, 4, hidden=6, n_out=3, seed=s))
    if m == "linear":
        x = 0.5 * rng.standard_normal((n, 10))
        y = 0.5 * rng.standard_normal((n, 2))
        return (x, y,
                lambda ctx: SecureLinearRegression(ctx, 10, n_out=2),
                lambda: PlainLinearRegression(10, n_out=2, seed=s))
    if m == "logistic":
        x = 0.5 * rng.standard_normal((n, 10))
        return (x, onehot(2),
                lambda ctx: SecureLogisticRegression(ctx, 10, n_out=2),
                lambda: PlainLogisticRegression(10, n_out=2, seed=s))
    if m == "attention":
        x = 0.5 * rng.standard_normal((n, 3 * 4))
        return (x, onehot(3),
                lambda ctx: SecureAttention(ctx, 3, 4, n_out=3),
                lambda: PlainAttention(3, 4, n_out=3, seed=s))
    if m == "recsys":
        x = onehot(12)
        return (x, onehot(3),
                lambda ctx: SecureRecsys(ctx, 12, 6, n_out=3),
                lambda: PlainRecsys(12, 6, n_out=3, seed=s))
    # SVM: labels in {-1, +1}
    x = 0.5 * rng.standard_normal((n, 10))
    y = np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0)
    return (x, y,
            lambda ctx: SecureSVM(ctx, 10),
            lambda: PlainSVM(10, seed=s))


def sync_plain_weights(model_name: str, secure, plain) -> None:
    """Copy the secure model's decoded initial weights into its twin.

    Both inits are random; conformance compares *arithmetic*, so the
    twins must start from identical parameters (the secure side's
    decoded fixed-point values, which the plain model can represent
    exactly).
    """
    if model_name == "RNN":
        plain.cell.wx = secure.cell.w_x.decode()
        plain.cell.wh = secure.cell.w_h.decode()
        plain.cell.b = secure.cell.bias.decode()
        plain.readout.w = secure.readout.weight.decode()
        plain.readout.b = secure.readout.bias.decode()
        return
    if model_name == "attention":
        plain.block.wq, plain.block.wk, plain.block.wv = (
            np.ascontiguousarray(w) for w in np.split(secure.block.w_qkv.decode(), 3, axis=1)
        )
        plain.block.wo = secure.block.w_o.decode()
        plain.readout.w = secure.readout.weight.decode()
        plain.readout.b = secure.readout.bias.decode()
        return
    for s_layer, p_layer in zip(secure.layers, plain.layers):
        if hasattr(s_layer, "weight"):
            p_layer.w = s_layer.weight.decode()
            if hasattr(s_layer, "bias") and hasattr(p_layer, "b"):
                p_layer.b = s_layer.bias.decode()


def run_conformance_case(
    case: ConformanceCase,
    *,
    audit: bool = True,
    capture_payloads: bool = True,
) -> ConformanceResult:
    """Run one cell: secure vs plain on identical weights and data.

    Inference cases compare forward predictions; training cases run the
    same SGD batches through both sides first, so the comparison also
    covers every backward-pass op.  With ``audit`` on, the run records a
    full transcript and chi-squares each server's wire view.
    """
    from repro.core.context import SecureContext

    x, y, build_secure, build_plain = _tiny_workload(case)
    ctx = SecureContext.create(case.config())
    recorder = None
    if audit:
        recorder = ctx.attach_recorder(capture_payloads=capture_payloads)
        recorder.meta.update({"case": case.name, "seed": case.seed})
    secure = build_secure(ctx)
    plain = build_plain()
    sync_plain_weights(case.model, secure, plain)

    timer = PlainTimer("cpu")
    if case.train:
        trainer = SecureTrainer(ctx, secure, lr=0.125)
        trainer.train(x, y, batch_size=case.batch_size)
        PlainTrainer(plain, timer, lr=0.125).train(x, y, batch_size=case.batch_size)
    report = secure_predict(ctx, secure, x, batch_size=case.batch_size)
    plain_pred = plain.forward(x, timer, training=False)

    max_err = float(np.max(np.abs(report.predictions - plain_pred)))
    transcript = recorder.transcript() if recorder is not None else None
    wire = None
    if transcript is not None and capture_payloads:
        wire = audit_transcript(transcript, telemetry=ctx.telemetry)
    hits = ctx.telemetry.registry.counter("mpc.mask_reuse.hits")
    return ConformanceResult(
        case=case, max_abs_err=max_err, tol=case.tol,
        predictions=report.predictions, transcript=transcript, wire=wire,
        served={scope: int(hits.value(scope=scope)) for scope in ("step", "static")},
    )


def run_conformance_sweep(
    models=CONFORMANCE_MODELS,
    axes=tuple(CONFORMANCE_AXES),
    *,
    seed: int = 0,
    train: bool = False,
    audit: bool = False,
    backend: str = "beaver2pc",
) -> list[ConformanceResult]:
    """The full differential matrix; returns every cell's verdict."""
    return [
        run_conformance_case(
            ConformanceCase(model=m, axis=a, seed=seed, train=train, backend=backend),
            audit=audit,
        )
        for m in models
        for a in axes
    ]


def disagreements(results: list[ConformanceResult]) -> list[ConformanceResult]:
    return [r for r in results if not r.agreed]


def assert_bit_identical(
    base: ConformanceResult, variant: ConformanceResult, *, context: str = ""
) -> None:
    """Cost-only knobs must not move a single bit of the predictions."""
    if not np.array_equal(base.predictions, variant.predictions):
        delta = float(np.max(np.abs(base.predictions - variant.predictions)))
        prefix = f"{context}: " if context else ""
        raise AuditError(
            f"{prefix}{variant.case.name} is not bit-identical to "
            f"{base.case.name} (max delta {delta:.3e}) — a cost-only knob "
            "changed protocol arithmetic"
        )
