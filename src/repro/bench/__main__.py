"""Command-line entry point: run one benchmark cell from a shell.

Examples::

    python -m repro.bench MLP MNIST                  # both systems + speedup
    python -m repro.bench CNN VGGFace2 --system par  # ParSecureML only
    python -m repro.bench linear NIST --inference    # forward-only (Fig. 13)
    python -m repro.bench MLP MNIST --serve --clients 8   # serving-layer latency
    python -m repro.bench MLP MNIST --batches 4 --no-extrapolate
    python -m repro.bench MLP MNIST --system par --pool-size 8 \\
        --json BENCH_offline.json                    # batched offline phase

Prints the same per-phase numbers the benchmark suite aggregates into
the paper's tables; see ``pytest benchmarks/ --benchmark-only`` for the
full regeneration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.bench.harness import (
    run_fleet,
    run_plain,
    run_secure,
    run_secure_inference,
    run_serving,
    run_workload_figures,
)
from repro.bench.workloads import BENCH_DATASETS, BENCH_MODELS, WORKLOAD_MODELS
from repro.core.config import FrameworkConfig


def _configs(
    which: str,
    *,
    pool_size: int = 0,
    backends: list[str] | None = None,
    runtime: str = "lockstep",
):
    par = FrameworkConfig.parsecureml(runtime=runtime)
    sml = FrameworkConfig.secureml(runtime=runtime)
    rows = {"par": [("ParSecureML", par)], "sml": [("SecureML", sml)],
            "both": [("SecureML", sml), ("ParSecureML", par)]}[which]
    if pool_size > 0 and which in ("par", "both"):
        pooled = dataclasses.replace(par, pool_size=pool_size)
        rows = [*rows, ("ParSecureML+pool", pooled)]
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
    parser.add_argument(
        "--serve", action="store_true",
        help="serve the inference rows as ragged multi-client requests "
        "through repro.serve and report p50/p95/p99 request latency",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="logical clients for --serve (default 4)",
    )
    parser.add_argument(
        "--replicas", type=int, default=None,
        help="with --serve: route the clients through a fleet of N "
        "replica deployments instead of one server",
    )
    parser.add_argument(
        "--placement", choices=["hash", "least-depth"], default="least-depth",
        help="fleet placement policy (default least-depth)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=None,
        help="with --replicas: add a chaos cell where replica 0's "
        "server1 crashes mid-serve; exits 1 if any request is dropped",
    )
    parser.add_argument(
        "--scale-curve", metavar="N,N,...", default=None,
        help="with --replicas: also run these replica counts clean and "
        "report throughput scaling vs the first (e.g. 1,2,4)",
    )
    parser.add_argument(
        "--conformance", action="store_true",
        help="with --replicas: replay every replica's journal standalone "
        "and require bit-identical transcripts; exits 1 on divergence",
    )
    parser.add_argument("--full-scale", action="store_true", help="NIST at 512x512")
    parser.add_argument(
        "--no-extrapolate", action="store_true",
        help="report measured batches instead of a paper-scale epoch",
    )
    parser.add_argument("--plain", action="store_true",
                        help="also run the non-secure CPU and GPU baselines")
    parser.add_argument(
        "--pool-size", type=int, default=0,
        help="triplet-pool refill batch; adds a ParSecureML+pool row when > 0",
    )
    parser.add_argument(
        "--runtime", choices=["lockstep", "dataflow"], default="lockstep",
        help="task scheduling on the simulated clocks: lockstep program-"
        "order placement (default) or the event-driven dataflow scheduler "
        "(repro.runtime.dataflow); values are bit-identical either way",
    )
    parser.add_argument(
        "--backend", action="append", metavar="NAME", default=None,
        help="protocol backend to run (beaver2pc, rep3); repeat the flag "
        "to compare backends side by side in one invocation",
    )
    parser.add_argument(
        "--workloads", action="store_true",
        help="run the attention + recsys workload suite (train and "
        "inference rows per model, plus recsys inference with "
        "compression off) and report makespans, message counts and the "
        "CSR raw-vs-wire byte gap; the committed BENCH_workloads.json "
        "is this suite's output",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result rows as JSON")
    parser.add_argument(
        "--audit", action="store_true",
        help="record a protocol transcript and chi-square each server's "
        "wire view (repro.audit); exits 1 if any link fails the ceiling",
    )
    args = parser.parse_args(argv)
    audit_failed = False

    def _audit_row(res, row):
        nonlocal audit_failed
        if res.wire is None:
            return
        print(f"{'':>16}   {res.wire.summary().replace(chr(10), chr(10) + ' ' * 19)}")
        row["audit_passed"] = res.wire.passed
        row["audit_max_chi2"] = res.wire.max_chi2
        if not res.wire.passed:
            audit_failed = True

    results = []
    rows = []
    if args.workloads:
        for name, cfg in _configs(
            "par", pool_size=args.pool_size, backends=args.backend,
            runtime=args.runtime,
        ):
            figure_rows = run_workload_figures(
                cfg, n_batches=args.batches, batch_size=args.batch_size,
                seed=args.seed,
            )
            for r in figure_rows:
                tag = r.mode + ("" if r.compression else "/dense")
                print(
                    f"{name + '/' + r.model + '/' + tag:>28}:  "
                    f"online {r.online_s * 1e3:9.3f} ms   "
                    f"offline {r.offline_s * 1e3:9.3f} ms   "
                    f"{r.comm_messages:5d} msgs   {r.comm_bytes:,} B"
                    + (f"   wire {r.wire_comm_bytes:,} / raw {r.raw_comm_bytes:,} B"
                       if r.raw_comm_bytes else "")
                )
                rows.append({
                    "system": name, "backend": cfg.backend, "runtime": cfg.runtime,
                    "model": r.model, "mode": r.mode, "compression": r.compression,
                    "batches": args.batches, "batch_size": args.batch_size,
                    "seed": args.seed,
                    "online_s": r.online_s, "offline_s": r.offline_s,
                    "comm_bytes": r.comm_bytes, "comm_messages": r.comm_messages,
                    "raw_comm_bytes": r.raw_comm_bytes,
                    "wire_comm_bytes": r.wire_comm_bytes,
                })
            csr = [r for r in figure_rows
                   if r.model == "recsys" and r.mode == "infer" and r.compression]
            dense = [r for r in figure_rows
                     if r.model == "recsys" and r.mode == "infer" and not r.compression]
            if csr and dense and dense[0].comm_bytes:
                saved = dense[0].comm_bytes - csr[0].comm_bytes
                print(f"{'':>28}   recsys CSR win: {dense[0].comm_bytes:,} -> "
                      f"{csr[0].comm_bytes:,} B on the wire "
                      f"({saved / dense[0].comm_bytes:.1%} saved)")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({"argv": argv if argv is not None else sys.argv[1:],
                           "rows": rows}, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0
    if args.serve and args.replicas is not None:
        fleet_failed = False
        counts = (
            [int(c) for c in args.scale_curve.split(",")]
            if args.scale_curve else [args.replicas]
        )
        for name, cfg in _configs(
            args.system, pool_size=args.pool_size, backends=args.backend,
            runtime=args.runtime,
        ):
            base_tput = None
            cells = [(r, None) for r in counts]
            if args.chaos_seed is not None:
                cells.append((args.replicas, args.chaos_seed))
            for n_replicas, chaos_seed in cells:
                res = run_fleet(
                    args.model, args.dataset, cfg,
                    replicas=n_replicas, clients=args.clients,
                    placement=args.placement, batch_size=args.batch_size,
                    seed=args.seed, chaos_seed=chaos_seed,
                    conformance=args.conformance,
                )
                tput = res.rows_per_online_s
                if chaos_seed is None and base_tput is None:
                    base_tput = tput
                scaling = tput / base_tput if base_tput else None
                tag = f"chaos(seed={chaos_seed})" if chaos_seed is not None else "clean"
                print(f"{name:>16}:  {n_replicas} replicas [{tag}]  "
                      f"{res.requests} requests / {res.rows} rows -> "
                      f"{res.batches} batches, {res.crashes} crashes, "
                      f"{res.rerouted} rerouted, {res.dropped} dropped")
                print(f"{'':>16}   p50 {res.p50_s * 1e3:8.3f} ms   "
                      f"p95 {res.p95_s * 1e3:8.3f} ms   "
                      f"{tput:,.0f} rows/s online"
                      + (f"   scaling {scaling:.2f}x" if scaling is not None
                         and chaos_seed is None else ""))
                if res.conformance is not None:
                    verdict = "ok" if res.conformance_ok else "DIVERGED"
                    print(f"{'':>16}   conformance replay: {verdict} "
                          f"({len(res.conformance)} replicas)")
                if res.dropped != 0 or res.conformance_ok is False:
                    fleet_failed = True
                rows.append({
                    "system": name, "model": args.model, "dataset": args.dataset,
                    "backend": cfg.backend,
                    "serve": True, "fleet": True,
                    "replicas": n_replicas, "placement": res.placement,
                    "chaos_seed": chaos_seed,
                    "clients": res.clients, "requests": res.requests,
                    "rows": res.rows, "batches": res.batches,
                    "crashes": res.crashes, "rerouted": res.rerouted,
                    "dropped": res.dropped, "rejected": res.rejected,
                    "offline_s": res.offline_s, "online_s": res.online_s,
                    "p50_s": res.p50_s, "p95_s": res.p95_s, "p99_s": res.p99_s,
                    "rows_per_online_s": tput,
                    "scaling_x": scaling if chaos_seed is None else None,
                    "conformance_ok": res.conformance_ok,
                    "per_replica": res.per_replica,
                })
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({"argv": argv if argv is not None else sys.argv[1:],
                           "rows": rows}, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 1 if fleet_failed else 0
    if args.serve:
        for name, cfg in _configs(
            args.system, pool_size=args.pool_size, backends=args.backend,
            runtime=args.runtime,
        ):
            res = run_serving(
                args.model, args.dataset, cfg,
                clients=args.clients, n_batches=args.batches,
                batch_size=args.batch_size, seed=args.seed, audit=args.audit,
            )
            print(f"{name:>16}:  {res.requests} requests / {res.rows} rows from "
                  f"{res.clients} clients -> {res.batches} batches "
                  f"(fill {res.batch_fill:.0%})")
            print(f"{'':>16}   latency p50 {res.p50_s * 1e3:8.3f} ms   "
                  f"p95 {res.p95_s * 1e3:8.3f} ms   p99 {res.p99_s * 1e3:8.3f} ms   "
                  f"{res.rows_per_online_s:,.0f} rows/s online")
            rows.append({
                "system": name, "model": args.model, "dataset": args.dataset,
                "backend": cfg.backend,
                "serve": True, "clients": res.clients, "requests": res.requests,
                "rows": res.rows, "batches": res.batches,
                "batch_fill": res.batch_fill, "padded_rows": res.padded_rows,
                "retried_batches": res.retried_batches,
                "offline_s": res.offline_s, "online_s": res.online_s,
                "p50_s": res.p50_s, "p95_s": res.p95_s, "p99_s": res.p99_s,
            })
            _audit_row(res, rows[-1])
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({"argv": argv if argv is not None else sys.argv[1:],
                           "rows": rows}, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 1 if audit_failed else 0
    for name, cfg in _configs(
        args.system, pool_size=args.pool_size, backends=args.backend,
        runtime=args.runtime,
    ):
        if args.inference:
            res = run_secure_inference(
                args.model, args.dataset, cfg,
                n_batches=args.batches, batch_size=args.batch_size, seed=args.seed,
                audit=args.audit,
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
        label = f"{name:>16}" if args.pool_size else f"{name:>12}"
        print(f"{label}:  offline {res.offline_s(n):10.3f}s   "
              f"online {res.online_s(n):10.3f}s   total {res.total_s(n):10.3f}s   [{scope}]")
        results.append((name, res.total_s(n)))
        rows.append({
            "system": name,
            "model": args.model,
            "dataset": args.dataset,
            "backend": cfg.backend,
            "runtime": cfg.runtime,
            "offline_s": res.offline_s(n),
            "online_s": res.online_s(n),
            "total_s": res.total_s(n),
            "scope": scope,
            "server_bytes": res.server_bytes,
            "raw_comm_bytes": res.raw_comm_bytes,
            "wire_comm_bytes": res.wire_comm_bytes,
            "pool_size": cfg.pool_size,
        })
        _audit_row(res, rows[-1])

    if args.plain and not args.inference:
        for device in ("cpu", "gpu"):
            res = run_plain(
                args.model, args.dataset, device,
                n_batches=args.batches, batch_size=args.batch_size, seed=args.seed,
                tensor_core=(device == "gpu"), full_scale=args.full_scale,
            )
            n = args.batches if args.no_extrapolate else None
            print(f"{'plain-' + device:>12}:  total {res.total_s(n):10.3f}s")
            results.append((f"plain-{device}", res.total_s(n)))

    if len(results) >= 2 and results[0][1] > 0:
        base_name, base = results[0]
        for name, total in results[1:]:
            if total > 0:
                print(f"{base_name} / {name} = {base / total:.1f}x")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"argv": argv if argv is not None else sys.argv[1:],
                       "rows": rows}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if audit_failed else 0


if __name__ == "__main__":
    sys.exit(main())
