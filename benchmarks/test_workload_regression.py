"""Workload-suite regression guards (plain pytest, CI smoke).

Replays the attention + recsys suite behind ``--workloads`` with the
exact parameters recorded in the committed ``BENCH_workloads.json`` and
checks, per (model, mode, compression) row:

* message counts are *exactly* the committed ones — the simulation is
  deterministic, so any drift is a protocol regression, not noise;
* the simulated online makespan has not regressed beyond 10% headroom;
* what keeps recsys bytes off the wire is the stable mask, not the
  codec: the compression-on and compression-off inference rows are
  byte-equal (the compressor never fires on this workload — the
  embedding table's ``F`` is opened once and never re-sent, and the
  remaining streams change too much between batches), while the same
  inference under ``fresh_triplets=True`` ships strictly more
  (DESIGN §7c).

* an attention train step is 66 inter-server messages (74 on the step
  that deals its triplets: a value is opened once, so ``dC``, ``dV``,
  ``dK`` and the readout's ``dX`` — both operands already public — send
  no frame) and its largest frame is the fused ``dWqkv`` round,
  ``8*4*b*s*d`` bytes plus headers on the dealing step, ``[dQ|dK|dV]``
  alone after it — linear in ``s``; the pair-grid frames the Hadamard
  expansion sent were 131 180 B at this geometry and grew with ``s**2``;
* an MLP 784-128-128-10 train step at batch 128 (``perf/``'s
  ``train_mlp``) is 24 inter-server messages and at most 7 686 060 B
  (28 and 10 906 394 B while every op stream opened its own operands);
* a value is uploaded once: that MLP step is at most 18 host-to-device
  transfers and 4 562 944 B per server, an attention step at most 12
  (32 / 7 258 112 B and 20 while ``dW`` and ``dX`` uploaded again what
  the forward pass had left on the GPU);
* a server's own shares cross PCIe while ``E``/``F`` are on the wire:
  a warm step of ``perf/``'s ``train_mlp`` takes at most 1 719.6 µs
  and of its ``train_cnn`` at most 2 965.9 µs of simulated online time
  (1 932.8 / 3 541.7 µs while every upload waited on the exchange,
  3 075.4 µs on ``train_cnn`` before the clock backfilled idle gaps);
* batch k+1 runs in the gaps batch k leaves on the wire: the rep3 MLP
  784-128-128-10 ``secure_predict`` over six batches of 128 (``perf/``'s
  ``infer_mlp_rep3`` unit) keeps an online makespan of at most
  :data:`REP3_PREDICT_ONLINE_S` (7 425.5 µs with batches back to back);
* the Fig. 10 MLP/MNIST cell (two training batches of 128) keeps an
  online makespan of at most :data:`FIG10_ONLINE_REFERENCE_S`;
* a warm MLP/MNIST inference batch is strictly faster online than a
  cold one (Fig. 11: an unchanged weight's ``F`` is opened once and,
  with every stream's ``Z``, stays on the server GPUs).

Runs standalone:
``PYTHONPATH=src python -m pytest benchmarks/test_workload_regression.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.harness import run_secure_inference, run_workload_figures
from repro.core.config import FrameworkConfig

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "BENCH_workloads.json"


@pytest.fixture(scope="module")
def reference() -> list[dict]:
    if not BENCH_REFERENCE.exists():
        pytest.skip("no committed BENCH_workloads.json reference")
    return json.loads(BENCH_REFERENCE.read_text())["rows"]


@pytest.fixture(scope="module")
def fresh(reference):
    """Re-run the suite with the committed run's parameters."""
    first = reference[0]
    cfg = FrameworkConfig.parsecureml(backend=first.get("backend", "beaver2pc"))
    rows = run_workload_figures(
        cfg,
        n_batches=first["batches"],
        batch_size=first["batch_size"],
        seed=first["seed"],
    )
    return {(r.model, r.mode, r.compression): r for r in rows}


def _ref_rows(reference) -> dict[tuple, dict]:
    return {(r["model"], r["mode"], r["compression"]): r for r in reference}


def test_reference_covers_both_workloads(reference):
    keys = set(_ref_rows(reference))
    assert ("attention", "train", True) in keys
    assert ("attention", "infer", True) in keys
    assert ("recsys", "train", True) in keys
    assert ("recsys", "infer", True) in keys
    assert ("recsys", "infer", False) in keys


def test_message_counts_match_reference(fresh, reference):
    for key, ref in _ref_rows(reference).items():
        row = fresh.get(key)
        assert row is not None, f"suite no longer produces row {key}"
        assert row.comm_messages == ref["comm_messages"], (
            f"{key}: {row.comm_messages} msgs vs committed "
            f"{ref['comm_messages']} — protocol round structure changed"
        )


def test_online_makespan_no_regression(fresh, reference):
    for key, ref in _ref_rows(reference).items():
        row = fresh[key]
        assert row.online_s <= ref["online_s"] * 1.10, (
            f"{key}: online makespan {row.online_s:.6f}s vs committed "
            f"{ref['online_s']:.6f}s (>10% regression)"
        )


def _server_frames(recorder, since=0):
    return [r for r in recorder.transcript().records[since:] if r.src.startswith("server")]


def _uploads(ctx, since=0) -> list[int]:
    """Host-to-device transfers per server on the online clock's trace."""
    tasks = ctx.online_clock.trace[since:]
    return [sum(t.resource == gpu.h2d_engine for t in tasks) for gpu in ctx.server_gpu]


def test_attention_train_step_is_66_messages_and_no_frame_outgrows_the_projections(reference):
    from repro.bench.workloads import build_secure_model, load_workload
    from repro.core.context import SecureContext
    from repro.core.training import SecureTrainer

    first = reference[0]
    b = first["batch_size"]
    x, y, spec = load_workload(
        "attention", "SYNTHETIC", n_batches=first["batches"], batch_size=b, seed=first["seed"]
    )
    ctx = SecureContext.create(FrameworkConfig.parsecureml(trace=True))
    model = build_secure_model(ctx, spec)
    recorder = ctx.attach_recorder(capture_payloads=False)
    SecureTrainer(ctx, model, monitor_loss=False).train(x, y, batch_size=b)
    frames = _server_frames(recorder)
    # the first step deals every stream and re-opens once per link
    assert len(frames) == 74 + 66 * (first["batches"] - 1)
    # after it a value crosses PCIe once: qkv and o upload four operands
    # each, dWo and dWqkv their delta only, dC nothing
    warm = len(ctx.online_clock.trace)
    SecureTrainer(ctx, model, monitor_loss=False).train(x[:b], y[:b], batch_size=b)
    assert max(_uploads(ctx, warm)) <= 12
    block = model.block
    largest = max(frames, key=lambda r: r.nbytes)
    assert largest.tag.startswith("attn/dWqkv/EF/")
    assert largest.nbytes <= 8 * 4 * b * block.seq_len * block.d_model + 256


def test_mlp_train_step_is_24_messages_and_under_7_7_megabytes():
    import numpy as np

    from repro.core.context import SecureContext
    from repro.core.models import SecureMLP
    from repro.core.training import SecureTrainer

    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(128, 784)), rng.normal(size=(128, 10))
    ctx = SecureContext.create(FrameworkConfig(trace=True))
    trainer = SecureTrainer(ctx, SecureMLP(ctx, 784, hidden=(128, 128), n_out=10), monitor_loss=False)
    recorder = ctx.attach_recorder(capture_payloads=False)
    trainer.train(x, y, batch_size=128)  # deals every stream
    since = len(recorder)
    warm, uploaded = len(ctx.online_clock.trace), [gpu.h2d_bytes for gpu in ctx.server_gpu]
    trainer.train(x, y, batch_size=128)
    frames = _server_frames(recorder, since)
    assert len(frames) == 24
    assert sum(r.nbytes for r in frames) <= 7_686_060
    assert max(_uploads(ctx, warm)) <= 18
    assert all(gpu.h2d_bytes - was <= 4_562_944 for gpu, was in zip(ctx.server_gpu, uploaded))


#: Warm-step online makespan (s) of perf/'s train_mlp and train_cnn at seed 0.
WARM_STEP_S = {"train_mlp": 0.001719578228521472, "train_cnn": 0.0029659094801767942}


@pytest.mark.parametrize("workload", sorted(WARM_STEP_S))
def test_warm_train_step_makespan_holds_the_early_share_upload(workload):
    import numpy as np

    import repro

    if workload == "train_mlp":
        build, batch = (lambda ctx: repro.SecureMLP(ctx, 784, hidden=(128, 128), n_out=10)), 128
    else:
        build, batch = (lambda ctx: repro.SecureCNN(ctx, (28, 28, 1))), 16
    rng = np.random.default_rng(0)
    x = 0.5 * rng.standard_normal((2 * batch, 784))
    y = np.eye(10)[rng.integers(0, 10, size=2 * batch)]
    ctx = repro.SecureContext.create(FrameworkConfig(seed=0))
    trainer = repro.SecureTrainer(ctx, build(ctx), monitor_loss=False)
    trainer.train(x, y, batch_size=batch)  # deals every stream
    (step,) = trainer.train(x[:batch], y[:batch], batch_size=batch).batch_online_s
    assert step <= WARM_STEP_S[workload] * (1 + 1e-9), (
        f"{workload}: warm step {step * 1e6:.1f} us vs pinned {WARM_STEP_S[workload] * 1e6:.1f} us"
    )


#: Online makespan (s) of one rep3 MLP 784-128-128-10 secure_predict over
#: six batches of 128 at seed 0: batch k+1 backfills batch k's reshare waits.
REP3_PREDICT_ONLINE_S = 0.00433858258461333


def test_rep3_predict_makespan_holds_the_inter_batch_backfill():
    import numpy as np

    import repro

    x = 0.5 * np.random.default_rng(0).standard_normal((6 * 128, 784))
    ctx = repro.SecureContext.create(FrameworkConfig(backend="rep3", seed=0))
    model = repro.SecureMLP(ctx, 784, hidden=(128, 128), n_out=10)
    online_s = repro.secure_predict(ctx, model, x, batch_size=128).online_s
    assert online_s <= REP3_PREDICT_ONLINE_S * (1 + 1e-9), (
        f"rep3 predict online makespan {online_s} above the pinned {REP3_PREDICT_ONLINE_S}"
    )


#: Online makespan (s) of the Fig. 10 MLP/MNIST cell: two training batches
#: of 128 on the default config — the one wire path (framed, E/F packed),
#: the backward pass stopping at the first trainable layer, every value
#: uploaded to the server GPUs once, the dealer comparison, and each H2D
#: upload issued as soon as it is ready and no later than in Fig. 5's order.
FIG10_ONLINE_REFERENCE_S = 0.003615436918152094


def test_fig10_online_makespan_holds_the_pin():
    from repro.bench.harness import build_secure_model, load_workload
    from repro.core.context import SecureContext
    from repro.core.training import SecureTrainer

    x, y, spec = load_workload("MLP", "MNIST", n_batches=2, batch_size=128, seed=0)
    ctx = SecureContext.create(FrameworkConfig.parsecureml())
    model = build_secure_model(ctx, spec)
    SecureTrainer(ctx, model, lr=0.03125, monitor_loss=False).train(x, y, batch_size=128)
    online_s = ctx.telemetry.snapshot().gauge("phase.sim_seconds", clock="online")
    assert online_s <= FIG10_ONLINE_REFERENCE_S * (1 + 1e-9), (
        f"Fig. 10 online makespan {online_s} above the pinned {FIG10_ONLINE_REFERENCE_S}"
    )


def test_fig11_reuse_online_strictly_faster():
    """Marginal batch (the first excluded) against a lone, cold batch."""
    cfg = FrameworkConfig.parsecureml()
    cold = run_secure_inference("MLP", "MNIST", cfg, n_batches=1, batch_size=128, seed=0)
    warm = run_secure_inference("MLP", "MNIST", cfg, n_batches=3, batch_size=128, seed=0)
    assert warm.per_batch_online_s < cold.per_batch_online_s, (
        f"warm batch {warm.per_batch_online_s:.6f}s should beat a cold one "
        f"{cold.per_batch_online_s:.6f}s"
    )


def test_recsys_wire_saving_is_the_stable_mask_not_the_codec(fresh, reference):
    refs = _ref_rows(reference)
    for rows, get in ((refs, lambda r, f: r[f]), (fresh, lambda r, f: getattr(r, f))):
        csr = rows[("recsys", "infer", True)]
        dense = rows[("recsys", "infer", False)]
        assert get(csr, "comm_bytes") == get(dense, "comm_bytes")
        for row in (csr, dense):
            assert get(row, "wire_comm_bytes") == get(row, "raw_comm_bytes")
    first = reference[0]
    kw = dict(n_batches=first["batches"], batch_size=first["batch_size"], seed=first["seed"])
    stable = run_secure_inference("recsys", "SYNTHETIC", FrameworkConfig.parsecureml(), **kw)
    single_use = run_secure_inference(
        "recsys", "SYNTHETIC", FrameworkConfig.parsecureml(fresh_triplets=True), **kw
    )
    assert stable.server_bytes < single_use.server_bytes
