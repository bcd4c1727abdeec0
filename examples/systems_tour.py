"""A tour of the three systems contributions, with visible evidence.

For each of the paper's Section 4 techniques, this example runs a
workload with the technique on and off and shows the simulated-timeline
evidence:

1. profiling-guided adaptive placement — the profiler's actual
   decisions across operation sizes (Section 4.2);
2. the double pipeline — an ASCII Gantt chart of one training batch
   with and without overlap (Section 4.3, Figs. 5-6);
3. compressed transmission — wire bytes with and without (Section 4.4).

Run:  python examples/systems_tour.py
"""

import numpy as np

import repro
from repro import FrameworkConfig, SecureMLP, SecureTrainer
from repro.pipeline.timeline import render_gantt, summarize


def tour_adaptive_placement() -> None:
    print("=" * 72)
    print("1. Profiling-guided adaptive GPU utilisation (Section 4.2)")
    print("=" * 72)
    ctx = repro.api.session()
    print(f"{'GEMM (m, k, n)':>24} | {'CPU est.':>10} | {'GPU est.':>10} | placement")
    for m, k, n in [(16, 16, 16), (128, 256, 64), (128, 4096, 128), (2048, 8192, 2048)]:
        d = ctx.profiler.place_gemm(m, k, n)
        print(f"{str((m, k, n)):>24} | {d.cpu_estimate_s:10.2e} | "
              f"{d.gpu_estimate_s:10.2e} | {d.placement}")
    print("small operations stay on the CPU (PCIe would eat the gain); large go to the GPU\n")


def _one_batch_timeline(double_pipeline: bool):
    cfg = FrameworkConfig.parsecureml(
        double_pipeline=double_pipeline,
        placement_mode="gpu_always",
        trace=True,
    )
    ctx = repro.api.session(cfg)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(128, 512))
    y = rng.normal(size=(128, 10))
    model = SecureMLP(ctx, 512, hidden=(256, 128), n_out=10)
    SecureTrainer(ctx, model, monitor_loss=False).train(x, y, epochs=1, batch_size=128)
    return ctx


def tour_double_pipeline() -> None:
    print("=" * 72)
    print("2. Double pipeline (Section 4.3): one secure batch, server 0")
    print("=" * 72)
    for dp in (False, True):
        ctx = _one_batch_timeline(dp)
        resources = ["s0.cpu", "s0rec.cpu", "s0gpu.h2d", "s0gpu.s0", "s0gpu.d2h"]
        resources = [r for r in resources if r in ctx.online_clock.resources()]
        print(f"\n--- double pipeline {'ON' if dp else 'OFF'} "
              f"(online makespan {ctx.online_clock.now() * 1e3:.2f} ms) ---")
        print(render_gantt(ctx.online_clock, resources=resources, width=68))
        s = summarize(ctx.online_clock)
        print(f"concurrent work: {s.overlap_seconds() * 1e3:.2f} ms of overlap")
    print()


def tour_compression() -> None:
    print("=" * 72)
    print("3. Compressed transmission (Section 4.4): inference traffic")
    print("=" * 72)
    for comp in (False, True):
        ctx = repro.api.session(compression=comp)
        rng = np.random.default_rng(0)
        model = SecureMLP(ctx, 256, hidden=(128, 64), n_out=10)
        repro.secure_predict(ctx, model, rng.normal(size=(512, 256)), batch_size=128)
        snap = ctx.telemetry.snapshot()
        wire = snap.counter("comm.bytes", channel=ctx.server_channel.label)
        print(f"compression {'ON ' if comp else 'OFF'}: "
              f"{wire / 1e6:8.2f} MB between the servers")
    print()
    print(ctx.telemetry.report(title="systems tour telemetry (last run)"))


def main() -> None:
    tour_adaptive_placement()
    tour_double_pipeline()
    tour_compression()


if __name__ == "__main__":
    main()
