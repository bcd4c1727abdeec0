"""Dataflow runtime regression guards (plain pytest, CI smoke).

The event-driven scheduler (``runtime="dataflow"``,
:mod:`repro.runtime.dataflow`) must extract overlap, never invent cost:

* the Fig. 10 MLP/MNIST online makespan under dataflow is no worse
  than the live lockstep run *and* no worse than the committed
  hand-tuned lockstep pipeline number (:data:`LOCKSTEP_REFERENCE_S`);
* the Fig. 12-style offline makespan (client dealer work) is likewise
  monotone non-increasing;
* the schedule change is cost-only: decoded predictions are
  bit-identical across runtimes (the conformance sweep covers all six
  models; this is the bench-cell spot check).

Runs standalone:
``PYTHONPATH=src python -m pytest benchmarks/test_runtime_regression.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import build_secure_model, load_workload
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.training import SecureTrainer

N_BATCHES = 2
BATCH_SIZE = 128
#: Lockstep online makespan of this cell — what a default lockstep run
#: produces on the one wire path (framed, E/F packed), with the backward
#: pass stopping at the first trainable layer (no ``mlp0/dX`` product),
#: every value uploaded to the server GPUs once (``dW`` and ``dX`` read
#: the forward pass's buffers; ``Z`` stays from step to step), and the
#: dealer comparison (whose indicator shares ``act:mul``'s ``F`` does
#: not delta-compress on).
LOCKSTEP_REFERENCE_S = 0.004118997213405428


def _run_cell(runtime: str):
    """One Fig. 10 MLP/MNIST cell: train, snapshot, predict."""
    x, y, spec = load_workload(
        "MLP", "MNIST", n_batches=N_BATCHES, batch_size=BATCH_SIZE, seed=0
    )
    cfg = FrameworkConfig.parsecureml(runtime=runtime)
    ctx = SecureContext.create(cfg)
    model = build_secure_model(ctx, spec)
    SecureTrainer(ctx, model, lr=0.03125, monitor_loss=False).train(
        x, y, epochs=1, batch_size=BATCH_SIZE
    )
    snap = ctx.telemetry.snapshot()
    pred = secure_predict(
        ctx, model, x[:BATCH_SIZE], batch_size=BATCH_SIZE
    ).predictions
    return {
        "online_s": snap.gauge("phase.sim_seconds", clock="online"),
        "offline_s": snap.gauge("phase.sim_seconds", clock="offline"),
        "predictions": pred,
    }


@pytest.fixture(scope="module")
def lockstep():
    return _run_cell("lockstep")


@pytest.fixture(scope="module")
def dataflow():
    return _run_cell("dataflow")


def test_fig10_online_makespan_no_worse_than_lockstep(lockstep, dataflow):
    assert dataflow["online_s"] <= lockstep["online_s"] * (1 + 1e-9), (
        f"dataflow online makespan regressed: {dataflow['online_s']} > "
        f"lockstep {lockstep['online_s']}"
    )


def test_fig10_online_makespan_no_worse_than_committed_reference(dataflow):
    assert dataflow["online_s"] <= LOCKSTEP_REFERENCE_S * (1 + 1e-9), (
        f"dataflow fig10 online makespan regressed above the committed "
        f"lockstep reference: {dataflow['online_s']} > {LOCKSTEP_REFERENCE_S}"
    )


def test_fig12_offline_makespan_no_worse_than_lockstep(lockstep, dataflow):
    assert dataflow["offline_s"] <= lockstep["offline_s"] * (1 + 1e-9)


def test_predictions_bit_identical_across_runtimes(lockstep, dataflow):
    np.testing.assert_array_equal(lockstep["predictions"], dataflow["predictions"])
