"""Fig. 2 — time breakdown of two-party computation (MLP on MNIST).

Paper (whole dataset as one batch): offline encrypt 62.68 s dominates
the offline phase (transmit 0.21 s); online compute2 (the big product)
95.52 s dominates the online phase over compute1 (0.19 s) and the
communicate step (0.24 s).  Shape claims: encrypt >> transmit within
offline; the GPU-operation step >> reconstruct within online.
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureMLP
from repro.core.training import SecureTrainer
from repro.datasets import mnist_like
from repro.pipeline.timeline import summarize


def build_breakdown():
    # SecureML mode (the figure profiles the *unaccelerated* flow), with
    # tracing on so the timeline can be decomposed.
    cfg = FrameworkConfig.secureml(trace=True)
    ctx = SecureContext(cfg)
    x, y = mnist_like(512, seed=0)
    model = SecureMLP(ctx, 784)
    SecureTrainer(ctx, model, monitor_loss=False).train(x, y, epochs=1, batch_size=128)

    # offline split: client compute (encrypt/triplets) vs uplink transmit
    off = summarize(ctx.offline_clock)
    encrypt_s = off.busy_seconds.get("client.cpu", 0.0)
    transmit_s = sum(v for k, v in off.busy_seconds.items() if k.startswith("link."))

    # online split: reconstruct (E/F/combine/comparisons on CPU) vs the
    # big product (cpu_gemm in SecureML mode) vs inter-server comm
    gemm_s = reconstruct_s = comm_s = 0.0
    for task in ctx.online_clock.trace:
        if task.resource.startswith("link."):
            comm_s += task.duration / 2  # two symmetric directions
        elif "cpu_gemm" in task.label:
            gemm_s += task.duration / 2  # two servers run in parallel
        else:
            reconstruct_s += task.duration / 2
    return {
        "offline/encrypt (s)": encrypt_s,
        "offline/transmit (s)": transmit_s,
        "online/reconstruct aka compute1 (s)": reconstruct_s,
        "online/communicate (s)": comm_s,
        "online/compute2 aka big product (s)": gemm_s,
    }


def test_fig2(benchmark):
    parts = benchmark.pedantic(build_breakdown, rounds=1, iterations=1)
    print()
    rows = [{"step": k, "seconds": v} for k, v in parts.items()]
    print(format_table(rows, ["step", "seconds"], title="Fig. 2: two-party computation breakdown (MLP/MNIST, SecureML mode)"))
    # Shape claims from the paper's figure:
    assert parts["offline/encrypt (s)"] > 5 * parts["offline/transmit (s)"]
    assert parts["online/compute2 aka big product (s)"] > 3 * parts["online/reconstruct aka compute1 (s)"]
    assert parts["online/compute2 aka big product (s)"] > 10 * parts["online/communicate (s)"]
