"""Differential conformance: every model × config agrees with plain.

CrypTen's discipline, applied here: each secure model is held to its
plaintext twin (:mod:`repro.baselines.plain`) as reference semantics.
Both are built from the model's one declaration in
:data:`repro.core.models.MODELS`.  A conformance case builds the secure
model under one configuration, copies its decoded initial weights into
the plain twin (:func:`~repro.core.models.sync_plain`), runs both on
the same data, and asserts the outputs agree within fixed-point
tolerance.  Sweeping every model in ``MODELS`` across the optimization
axes (delta compression, a resilient channel under a chaos seed) is the
regression oracle for "no optimization changed the arithmetic".  Opening every
value once (one mask per value, DESIGN §5b) is not an axis: it is on
in every cell, so each axis is swept *with* it, and a case of three or
more batches reuses every weight's ``F`` at least twice.  Task
scheduling is not an axis either: every cell runs the one lockstep
``SimClock`` placement.

Two strengths of agreement:

* **tolerance** (plain vs secure): truncation rounds each product, so
  secure outputs match plain only to ~2^-frac_bits per operation;
* **bit-identity** (secure vs secure): knobs in
  :data:`BIT_IDENTICAL_AXES` change only *costs* (bytes, seconds), so
  flipping them must reproduce the baseline predictions bit-for-bit.

Geometry is deliberately tiny (:data:`CONFORMANCE_GEOMETRY`: 8x8 images,
hidden widths of 6-8) so the full sweep stays in tier-1 test budgets;
conformance is about agreement, not throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.audit.transcript import Transcript
from repro.audit.wire import WireAuditReport, audit_transcript
from repro.baselines.plain import PlainTimer, PlainTrainer
from repro.core.config import FrameworkConfig
from repro.core.inference import secure_predict
from repro.core.models import MODELS, build_plain, build_secure, sync_plain
from repro.core.training import SecureTrainer
from repro.faults.plan import FaultPlan
from repro.util.errors import AuditError, ConfigError

#: Every declared model: the six paper models (Section 7.1) plus the
#: attention and recommendation workloads, by bench-suite name.
CONFORMANCE_MODELS = tuple(MODELS)

#: Each model at the sweep's tiny geometry (``build_secure`` /
#: ``build_plain`` arguments) and its input width.
CONFORMANCE_GEOMETRY: dict[str, tuple[dict[str, Any], int]] = {
    "CNN": (
        {"image_shape": (8, 8, 1), "conv_channels": 2, "hidden": 8, "n_out": 3, "kernel": 3},
        64,
    ),
    "MLP": ({"input_dim": 12, "hidden": (8,), "n_out": 3}, 12),
    "linear": ({"input_dim": 10, "n_out": 2}, 10),
    "logistic": ({"input_dim": 10, "n_out": 2}, 10),
    "SVM": ({"input_dim": 10}, 10),
    "RNN": ({"n_steps": 3, "step_features": 4, "hidden": 6, "n_out": 3}, 12),
    "attention": ({"seq_len": 3, "d_model": 4, "n_out": 3}, 12),
    "recsys": ({"vocab": 12, "emb_dim": 6, "n_out": 3}, 12),
}

#: Config axes swept against the baseline.  Values are ``.but()``
#: overrides on the ParSecureML preset.
CONFORMANCE_AXES: dict[str, dict[str, Any]] = {
    "baseline": {},
    "no_compression": {"compression": False},
    "chaos": {"fault_plan": FaultPlan(seed=7, drop=0.04, delay=0.04)},
}

#: Axes whose knobs are cost-only: secure predictions must be
#: bit-identical to the baseline axis, not merely within tolerance.
BIT_IDENTICAL_AXES = ("no_compression", "chaos")

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


def conformance_workload(case: ConformanceCase) -> tuple[np.ndarray, np.ndarray, dict]:
    """``(x, y, geometry)`` of one case: seeded data at the model's tiny
    geometry — one-hot targets, regression targets for ``linear``,
    labels in {-1, +1} for ``SVM``, one-hot inputs for ``recsys``."""
    geometry, width = CONFORMANCE_GEOMETRY[case.model]
    rng = np.random.default_rng(1000 + case.seed)
    n = case.batch_size * case.n_batches

    def onehot(k: int) -> np.ndarray:
        y = np.zeros((n, k))
        y[np.arange(n), rng.integers(0, k, size=n)] = 1.0
        return y

    x = onehot(width) if case.model == "recsys" else 0.5 * rng.standard_normal((n, width))
    if case.model == "linear":
        y = 0.5 * rng.standard_normal((n, geometry["n_out"]))
    elif case.model == "SVM":
        y = np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0)
    else:
        y = onehot(geometry["n_out"])
    return x, y, geometry


# Frozen perf/workloads.py calls the three-argument form; delete it with
# the next benchmark change.
def sync_plain_weights(model_name: str, secure, plain) -> None:
    sync_plain(secure, plain)


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

    x, y, geometry = conformance_workload(case)
    ctx = SecureContext.create(case.config())
    recorder = None
    if audit:
        recorder = ctx.attach_recorder(capture_payloads=capture_payloads)
        recorder.meta.update({"case": case.name, "seed": case.seed})
    secure = build_secure(case.model, ctx, **geometry)
    plain = build_plain(case.model, seed=case.seed, **geometry)
    sync_plain(secure, plain)

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
