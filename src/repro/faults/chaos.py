"""Chaos-test harness: prove faults change costs, never results.

The central claim of the subsystem is *chaos equivalence*: under any
recoverable :class:`~repro.faults.plan.FaultPlan`, secure training
converges to **bit-identical** final weight shares vs the fault-free
run — drops, duplicates, corruption, delays and even a crashed server
only move simulated time and telemetry counters, never numerics.
:func:`train_mlp_under_plan` is the canonical probe (a small MLP, two
batches, checkpoint-every-batch recovery) and
:func:`default_chaos_matrix` the plan matrix the chaos suite sweeps.

Core imports are lazy: the drivers import ``repro.faults`` at module
scope, so importing them here at module scope would cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.faults.plan import FaultPlan, PartyCrash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.training import TrainReport
    from repro.telemetry.snapshot import TelemetrySnapshot


@dataclass
class ChaosResult:
    """One chaos run: final weight shares + the run's full accounting."""

    plan: FaultPlan | None
    weights: dict[str, tuple[np.ndarray, np.ndarray]]
    report: "TrainReport"
    snapshot: "TelemetrySnapshot"
    losses: list[float] = field(default_factory=list)

    def weights_equal(self, other: "ChaosResult") -> bool:
        """Bit-exact share equality against another run."""
        if set(self.weights) != set(other.weights):
            return False
        return all(
            len(self.weights[name]) == len(other.weights[name])
            and all(
                np.array_equal(self.weights[name][p], other.weights[name][p])
                for p in range(len(self.weights[name]))
            )
            for name in self.weights
        )

    def fault_activity(self) -> dict[str, float]:
        """Nonzero ``faults.*`` counter totals observed in this run."""
        out: dict[str, float] = {}
        for name in (
            "faults.injected",
            "faults.retransmits",
            "faults.retransmit_bytes",
            "faults.timeouts",
            "faults.corrupt_detected",
            "faults.duplicates_suppressed",
            "faults.delays_applied",
            "faults.party_restarts",
            "faults.batches_replayed",
            "faults.requests_retried",
        ):
            value = self.snapshot.counter(name)
            if value:
                out[name] = value
        return out


def snapshot_weights(model) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Copy every parameter's share pair, keyed by checkpoint path."""
    from repro.core.checkpoint import _named_parameters

    return {
        name: tuple(s.copy() for s in tensor.shares)
        for name, tensor in _named_parameters(model)
    }


def train_mlp_under_plan(
    plan: FaultPlan | None,
    *,
    features: int = 12,
    batches: int = 2,
    batch_size: int = 8,
    hidden: tuple[int, ...] = (6,),
    data_seed: int = 7,
    checkpoint_every: int | None = 2,
    checkpoint_dir=None,
    max_restarts: int = 2,
    **config_overrides: Any,
) -> ChaosResult:
    """Train a small MLP for ``batches`` batches under ``plan``.

    ``plan=None`` is the fault-free baseline; everything else (data,
    model init, config) is held fixed so two results differ only by the
    plan.  Recovery is on: the trainer checkpoints every
    ``checkpoint_every`` batches and survives up to ``max_restarts``
    party crashes.
    """
    from repro.core.config import FrameworkConfig
    from repro.core.context import SecureContext
    from repro.core.models import SecureMLP
    from repro.core.training import SecureTrainer

    config = FrameworkConfig.parsecureml(fault_plan=plan, **config_overrides)
    ctx = SecureContext.create(config)
    model = SecureMLP(ctx, features, hidden=hidden, n_out=2)
    data_rng = np.random.default_rng(data_seed)
    x = data_rng.normal(size=(batches * batch_size, features)) * 0.25
    y = data_rng.normal(size=(batches * batch_size, 2)) * 0.25
    trainer = SecureTrainer(
        ctx,
        model,
        lr=0.0625,
        monitor_loss=True,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        max_restarts=max_restarts,
    )
    report = trainer.train(x, y, epochs=1, batch_size=batch_size)
    return ChaosResult(
        plan=plan,
        weights=snapshot_weights(model),
        report=report,
        snapshot=ctx.telemetry.snapshot(),
        losses=list(report.losses),
    )


def default_chaos_matrix(seed: int = 0) -> list[tuple[str, FaultPlan]]:
    """The recoverable plans the chaos suite sweeps, one per fault kind.

    Rates are high enough that two batches of MLP traffic reliably hit
    each fault kind several times; the crash plan downs server1 at batch
    1 so recovery replays from the batch-0 checkpoint.
    """
    return [
        ("drop", FaultPlan(seed=seed, drop=0.12)),
        ("duplicate", FaultPlan(seed=seed, duplicate=0.15)),
        ("corrupt", FaultPlan(seed=seed, corrupt=0.10)),
        ("delay", FaultPlan(seed=seed, delay=0.20, delay_s=400e-6)),
        ("mixed", FaultPlan(seed=seed, drop=0.05, duplicate=0.05, corrupt=0.05, delay=0.05)),
        (
            "crash-restart",
            FaultPlan(seed=seed, drop=0.05, crashes=(PartyCrash("server1", at_step=2),)),
        ),
    ]


def unrecoverable_plan(seed: int = 0) -> FaultPlan:
    """A plan no retry budget survives: the server link drops everything."""
    return FaultPlan(seed=seed, drop=1.0)
