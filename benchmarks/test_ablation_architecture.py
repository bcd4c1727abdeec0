"""Ablation — GPU architecture: Volta (V100, Tensor Cores) vs Pascal (P100).

Section 5.2 picks Tensor Cores because "the NVIDIA Tesla V100 ...
deliver[s] a peak performance of 125 TFLOPS, resulting in a 12x increase
in throughput with standard FP32 operations compared to the NVIDIA
Pascal P100".  This ablation swaps the device spec under the same
workload.

Shape claims: the V100 deployment beats the P100 one; the P100 spec
runs its GEMMs at its FP32 rate (Pascal has no Tensor Cores); the
V100's advantage grows with GEMM size.
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureMLP
from repro.core.training import SecureTrainer
from repro.simgpu.cost import P100_SPEC, V100_SPEC


def run(gpu_spec, features: int) -> float:
    cfg = FrameworkConfig.parsecureml(gpu_spec=gpu_spec, placement_mode="gpu_always")
    ctx = SecureContext(cfg)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, features)) * 0.5
    y = rng.normal(size=(256, 10)) * 0.1
    model = SecureMLP(ctx, features, hidden=(features // 2,), n_out=10)
    rep = SecureTrainer(ctx, model, monitor_loss=False).train(x, y, epochs=1, batch_size=128)
    return rep.marginal_online_s


def test_architecture_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {
            (spec.name, features): run(spec, features)
            for spec in (V100_SPEC, P100_SPEC)
            for features in (512, 4096)
        },
        rounds=1,
        iterations=1,
    )
    print()
    rows = [
        {"gpu": name, "features": f, "online s/batch": v}
        for (name, f), v in sorted(results.items())
    ]
    print(format_table(rows, ["gpu", "features", "online s/batch"],
                       title="Ablation: Volta (Tensor Cores) vs Pascal"))
    for features in (512, 4096):
        assert results[("tesla-v100", features)] < results[("tesla-p100", features)]
    # At the kernel level Volta's GEMM advantage grows with size (the
    # Markidis et al. observation the paper cites) ...
    small_kernel = P100_SPEC.gemm_seconds(256, 512, 256) / V100_SPEC.gemm_seconds(256, 512, 256)
    big_kernel = P100_SPEC.gemm_seconds(4096, 4096, 4096) / V100_SPEC.gemm_seconds(
        4096, 4096, 4096
    )
    assert big_kernel > small_kernel
    # ... while at the system level both devices share the same PCIe and
    # reconstruct costs, so the end-to-end edge stays modest — exactly
    # the paper's point that Tensor Cores contribute percents (Fig. 15),
    # not multiples, to the whole pipeline.
    big_system_adv = results[("tesla-p100", 4096)] / results[("tesla-v100", 4096)]
    assert 1.0 <= big_system_adv < big_kernel
    # Pascal: no Tensor Cores, so the spec's GEMM peak is its FP32 peak
    assert P100_SPEC.tensor_tflops == P100_SPEC.fp32_tflops
