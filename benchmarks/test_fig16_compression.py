"""Fig. 16 — communication kept off the inter-server wire by §4.4.

Paper: 22.9% average reduction in inter-server communication, from
transmitting CSR-coded deltas of slowly-changing streams (Eqs. 10-12).
The premise is a stable mask: with ``U``/``V`` fixed per op stream, an
operand that did not change opens to the same ``E``/``F``.

What is measured: total inter-server ``comm.bytes`` of the default
config against the same run under ``fresh_triplets=True`` (single-use
masks: nothing cached, nothing compressed).  That counts both things
stable masks buy — an unchanged weight's ``F`` opened once and never
re-sent, and the CSR deltas of the streams still sent — where the
compressor's own ``comm.compression.*`` counters see only the second
and lost the first when the stable ``F`` left the wire entirely.  The
compressor-only share is printed beside it.

Fidelity notes (recorded in EXPERIMENTS.md):

* in an *exact-ring* implementation every training-time weight update
  carries the SecureML local-truncation noise of +/-1 ulp, so nothing
  about an actively trained weight is stable: active training saves 0;
* the compressor's streams are keyed by op label and see consecutive
  *different* batches, while the paper's stable ``E`` is the same batch
  in the next epoch; on the one comparison protocol it fires on one of
  the four cases (logistic inference, whose activation indicators
  mostly repeat between batches).

Shape claims: stable masks never inflate traffic; every setting with
fixed weights (inference, frozen-layer fine-tuning) saves, more the
larger the fixed share; active training saves nothing.
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.models import SecureLogisticRegression, SecureMLP
from repro.core.training import SecureTrainer


def _comm_bytes(ctx):
    """(total, compressor raw, compressor wire) inter-server bytes."""
    snap = ctx.telemetry.snapshot()
    return (
        ctx.mark().server_bytes,
        int(snap.counter("comm.compression.raw_bytes")),
        int(snap.counter("comm.compression.wire_bytes")),
    )


def _stable_vs_fresh(name, run):
    """``run(ctx)`` on the default config and under single-use masks."""
    stable = SecureContext.create(FrameworkConfig.parsecureml())
    fresh = SecureContext.create(FrameworkConfig.parsecureml(fresh_triplets=True))
    run(stable)
    run(fresh)
    return (name, fresh.mark().server_bytes, *_comm_bytes(stable))


def run_inference_case(name, model_fn, features, batches=6):
    def run(ctx):
        rng = np.random.default_rng(1)
        model = model_fn(ctx, features)
        x = rng.normal(size=(batches * 128, features)) * 0.5
        secure_predict(ctx, model, x, batch_size=128)

    return _stable_vs_fresh(name, run)


def _train(ctx, *, freeze_first):
    rng = np.random.default_rng(2 if freeze_first else 3)
    model = SecureMLP(ctx, 256, hidden=(128,), n_out=64)
    if freeze_first:
        frozen = model.layers[0]
        frozen.apply_gradients = lambda lr: setattr(frozen, "_grad_w", None)
    x = rng.normal(size=(512, 256)) * 0.5
    y = rng.normal(size=(512, 64)) * 0.1
    SecureTrainer(ctx, model, lr=0.03125, monitor_loss=False).train(
        x, y, epochs=2, batch_size=128
    )


def run_frozen_training_case():
    """Fine-tuning with a frozen first layer: its F-stream is constant."""
    return _stable_vs_fresh(
        "MLP frozen-layer fine-tune", lambda ctx: _train(ctx, freeze_first=True)
    )


def run_active_training_case():
    return _stable_vs_fresh(
        "MLP active training", lambda ctx: _train(ctx, freeze_first=False)
    )


def build_cases():
    return [
        run_inference_case(
            "MLP inference", lambda ctx, f: SecureMLP(ctx, f, hidden=(128, 64), n_out=10), 256
        ),
        run_inference_case(
            "logistic inference", lambda ctx, f: SecureLogisticRegression(ctx, f, n_out=64), 256
        ),
        run_frozen_training_case(),
        run_active_training_case(),
    ]


def test_fig16(benchmark):
    cases = benchmark.pedantic(build_cases, rounds=1, iterations=1)
    print()
    rows = []
    savings = {}
    for name, fresh, stable, raw, wire in cases:
        savings[name] = 1.0 - stable / fresh
        rows.append({"workload": name, "single-use MB": fresh / 1e6, "stable MB": stable / 1e6,
                     "saved": f"{savings[name]:.1%}",
                     "compressor only": f"{1.0 - wire / raw:.1%}"})
        assert wire <= raw, "compression must never inflate traffic"
    print(format_table(
        rows, ["workload", "single-use MB", "stable MB", "saved", "compressor only"],
        title="Fig. 16: inter-server bytes stable masks keep off the wire (paper avg 22.9%)",
    ))
    assert all(s >= 0.0 for s in savings.values()), "stable masks must never inflate traffic"
    assert savings["MLP active training"] == 0.0, "a trained weight has nothing stable"
    # every fixed weight's F crosses once instead of once a batch
    assert savings["MLP inference"] > 0.12
    assert savings["logistic inference"] > 0.12
    assert savings["MLP frozen-layer fine-tune"] > 0.05
    stable = [s for n, s in savings.items() if n != "MLP active training"]
    assert sum(stable) / len(stable) > 0.10
