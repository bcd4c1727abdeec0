"""Command-line entry point: run one benchmark cell from a shell.

Examples::

    python -m repro.bench MLP MNIST                  # both systems + speedup
    python -m repro.bench CNN VGGFace2 --system par  # ParSecureML only
    python -m repro.bench linear NIST --inference    # forward-only (Fig. 13)
    python -m repro.bench MLP MNIST --batches 4 --no-extrapolate
    python -m repro.bench MLP MNIST --system par --backend rep3

Prints the same per-phase numbers the benchmark suite aggregates into
the paper's tables; see ``pytest benchmarks/ --benchmark-only`` for the
full regeneration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.bench.harness import run_plain, run_secure, run_secure_inference
from repro.bench.workloads import BENCH_DATASETS, BENCH_MODELS, WORKLOAD_MODELS
from repro.core.config import FrameworkConfig
from repro.simgpu.cost import V100_SPEC


def _configs(which: str, *, backends: list[str] | None = None):
    par = FrameworkConfig.parsecureml()
    sml = FrameworkConfig.secureml()
    rows = {"par": [("ParSecureML", par)], "sml": [("SecureML", sml)],
            "both": [("SecureML", sml), ("ParSecureML", par)]}[which]
    if backends:
        rows = [
            (f"{name}[{b}]", dataclasses.replace(cfg, backend=b))
            for name, cfg in rows
            for b in backends
        ]
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("model", choices=BENCH_MODELS + WORKLOAD_MODELS)
    parser.add_argument("dataset", choices=BENCH_DATASETS)
    parser.add_argument("--system", choices=["par", "sml", "both"], default="both")
    parser.add_argument("--batches", type=int, default=2, help="real batches to measure")
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload-generation seed; the same seed reproduces the run exactly",
    )
    parser.add_argument("--inference", action="store_true", help="forward pass only")
    parser.add_argument("--full-scale", action="store_true", help="NIST at 512x512")
    parser.add_argument(
        "--no-extrapolate", action="store_true",
        help="report measured batches instead of a paper-scale epoch",
    )
    parser.add_argument("--plain", action="store_true",
                        help="also run the non-secure CPU and GPU baselines")
    parser.add_argument(
        "--backend", action="append", metavar="NAME", default=None,
        help="protocol backend to run (beaver2pc, rep3); repeat the flag "
        "to compare backends side by side in one invocation",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="record a protocol transcript and chi-square each server's "
        "wire view (repro.audit); exits 1 if any link fails the ceiling",
    )
    args = parser.parse_args(argv)
    audit_failed = False
    results = []
    for name, cfg in _configs(args.system, backends=args.backend):
        if args.inference:
            res = run_secure_inference(
                args.model, args.dataset, cfg,
                n_batches=args.batches, batch_size=args.batch_size, seed=args.seed,
                full_scale=args.full_scale, audit=args.audit,
            )
        else:
            res = run_secure(
                args.model, args.dataset, cfg,
                n_batches=args.batches, batch_size=args.batch_size, seed=args.seed,
                full_scale=args.full_scale, audit=args.audit,
            )
        n = args.batches if args.no_extrapolate else None
        scope = f"{args.batches} measured batches" if args.no_extrapolate else (
            f"one paper-scale epoch ({res.spec.paper_batches} batches)"
        )
        print(f"{name:>12}:  offline {res.offline_s(n):10.3f}s   "
              f"online {res.online_s(n):10.3f}s   total {res.total_s(n):10.3f}s   [{scope}]")
        print(f"{'':>12}   {res.server_bytes:,} B between the servers over "
              f"{res.measured_batches} measured batches")
        results.append((name, res.total_s(n)))
        if res.wire is not None:
            print(f"{'':>16}   {res.wire.summary().replace(chr(10), chr(10) + ' ' * 19)}")
            audit_failed = audit_failed or not res.wire.passed

    if args.plain and not args.inference:
        for device in ("cpu", "gpu"):
            res = run_plain(
                args.model, args.dataset, device,
                n_batches=args.batches, batch_size=args.batch_size, seed=args.seed,
                gpu_spec=V100_SPEC, full_scale=args.full_scale,
            )
            n = args.batches if args.no_extrapolate else None
            print(f"{'plain-' + device:>12}:  total {res.total_s(n):10.3f}s")
            results.append((f"plain-{device}", res.total_s(n)))

    if len(results) >= 2 and results[0][1] > 0:
        base_name, base = results[0]
        for name, total in results[1:]:
            if total > 0:
                print(f"{base_name} / {name} = {base / total:.1f}x")

    return 1 if audit_failed else 0


if __name__ == "__main__":
    sys.exit(main())
