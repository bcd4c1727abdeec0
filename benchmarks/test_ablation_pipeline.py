"""Ablation — the double pipeline's two halves (DESIGN.md ablation 1).

The paper motivates *both* pipelines (Section 4.3): pipeline 1 overlaps
PCIe transfers with the Eq. 8 sub-kernels (Fig. 5), pipeline 2 overlaps
reconstruct steps across layers (Fig. 6).  This ablation measures the
online time of a multi-layer MLP under all four on/off combinations.

Shape claims: each pipeline helps on its own; both together are at
least as good as either alone; numerics are untouched (asserted in
tests/test_integration.py).
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureMLP
from repro.core.training import SecureTrainer


def run_config(pipeline1: bool, double_pipeline: bool) -> float:
    cfg = FrameworkConfig.parsecureml(
        pipeline1=pipeline1,
        double_pipeline=double_pipeline,
        placement_mode="gpu_always",  # pipelines act on the GPU path
    )
    ctx = SecureContext(cfg)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, 512)) * 0.5
    y = rng.normal(size=(256, 10)) * 0.1
    model = SecureMLP(ctx, 512, hidden=(256, 128), n_out=10)
    rep = SecureTrainer(ctx, model, monitor_loss=False).train(x, y, epochs=1, batch_size=128)
    return rep.marginal_online_s


def test_ablation_pipeline(benchmark):
    results = benchmark.pedantic(
        lambda: {
            (p1, p2): run_config(p1, p2) for p1 in (False, True) for p2 in (False, True)
        },
        rounds=1,
        iterations=1,
    )
    print()
    rows = [
        {
            "pipeline1 (Fig.5)": "on" if p1 else "off",
            "pipeline2 (Fig.6)": "on" if p2 else "off",
            "online s/batch": v,
            "vs none": f"{results[(False, False)] / v:.2f}x",
        }
        for (p1, p2), v in sorted(results.items())
    ]
    print(format_table(rows, ["pipeline1 (Fig.5)", "pipeline2 (Fig.6)", "online s/batch", "vs none"],
                       title="Ablation: double-pipeline components"))
    none = results[(False, False)]
    only_p1 = results[(True, False)]
    only_p2 = results[(False, True)]
    both = results[(True, True)]
    assert only_p1 < none, "pipeline 1 must help"
    assert only_p2 < none, "pipeline 2 must help"
    assert both <= min(only_p1, only_p2) + 1e-12, "the combination dominates"
