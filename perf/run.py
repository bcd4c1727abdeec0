#!/usr/bin/env python3
"""Two-clock benchmark of the ParSecureML reproduction.

    python3 perf/run.py                                    # six workloads, both passes
    python3 perf/run.py --workload train_mlp --trace 0     # one end-to-end pass
    python3 perf/run.py --workload train_mlp --trace 1     # one per-layer (traced) pass

One (workload, pass) runs in its own process with BLAS pinned to one
thread and ``PYTHONHASHSEED=0``; without ``--trace``, or with several
workloads, this process runs one child per (workload, pass), one after
the other.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out FILE``
gets the whole record (environment, every run) and ``--spans FILE`` the
spans of a single traced pass.
See ``perf/README.md`` for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
DEFAULT_SECONDS = 10.0
SETUP_RUNS = 3
TRACED_SHARE = 0.6  # of --seconds, spent on the untraced/traced unit pairs
MIN_PAIRS = 3
AUDIT_UNITS = 3


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class _Run:
    """One workload's bookkeeping shared by both passes."""

    def __init__(self, name: str, seed: int, import_s: float):
        from workloads import WORKLOADS

        self.cls = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.import_s = import_s
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None

    def unit(self, workload):
        """One timed unit; a unit that raises fails all its operations."""
        try:
            seconds, result = _timed(workload.unit)
        except Exception:  # the benchmark must still report: record and stop
            self.error = traceback.format_exc()
            print(self.error, file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None, None
        self.attempted += result.attempted
        self.failed += result.failed
        return seconds, result

    def check(self, workload) -> dict:
        err, tol = workload.check()
        ok = err <= tol
        self.attempted += 1
        self.failed += not ok
        return {"max_abs_err": err, "tol": tol, "ok": ok}

    def record(self, pass_name: str, metrics: dict, catalogue: dict, **extra) -> dict:
        rows = {}
        for name, spec in catalogue.items() if metrics else ():
            rows[name] = {
                "value": metrics[name],
                "unit": spec.unit,
                "clock": spec.clock,
                "better": spec.better,
            }
            if hasattr(spec, "bound"):  # end-to-end metrics only
                rows[name].update(bound=spec.bound, exact=spec.exact)
        return {
            "workload": self.name,
            "why": self.cls.why,
            "pass": pass_name,
            "seed": self.seed,
            "correct": self.failed == 0 and self.error is None,
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "error": self.error,
            "metrics": rows,
            **extra,
        }


def run_end_to_end(run: _Run, seconds: float, reps: int | None) -> dict:
    """Check, set up three times, then time units with tracing off; the
    calibration job runs after every unit."""
    from calibration import Calibration
    from metrics import END_TO_END_BY_NAME, SIM_UNITS, percentile

    calibration = Calibration()
    check = run.check(run.cls(run.seed))
    setups = []
    workload = None
    for _ in range(SETUP_RUNS):
        del workload  # drop the previous deployment before building the next
        gc.collect()
        start = time.perf_counter()
        workload = run.cls(run.seed)
        workload.setup()
        setups.append(time.perf_counter() - start)

    min_units = reps or SIM_UNITS
    sim_units = min(min_units, SIM_UNITS)
    units_s: list[float] = []
    sim = {"online_s": 0.0, "offline_s": 0.0, "wire_bytes": 0, "wire_messages": 0}
    latencies: list[float] = []
    peak_rss_kib = 0
    deadline = time.perf_counter() + seconds
    while len(units_s) < min_units or (reps is None and time.perf_counter() < deadline):
        unit_s, result = run.unit(workload)
        if result is None:
            break
        units_s.append(unit_s)
        calibration.probe()
        if len(units_s) <= sim_units:
            sim["online_s"] += result.online_s
            sim["offline_s"] += result.offline_s
            sim["wire_bytes"] += result.wire_bytes
            sim["wire_messages"] += result.wire_messages
            latencies.extend(result.latencies_s)
        if len(units_s) == sim_units:
            # read at a fixed amount of work, not at exit, so that a faster
            # host fitting more units into --seconds does not read higher
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.failed += workload.finish()

    metrics, wall = {}, {}
    if units_s and latencies:
        wall_s = statistics.mean(units_s) * calibration.factor
        metrics = {
            "setup_s": statistics.median(setups) * calibration.factor,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_kib / 1024,
            "sim_online_s": sim["online_s"],
            "sim_offline_s": sim["offline_s"],
            "sim_latency_p50_s": percentile(latencies, 0.50),
            "sim_latency_p95_s": percentile(latencies, 0.95),
            "wire_bytes": sim["wire_bytes"],
            "wire_messages": sim["wire_messages"],
        }
        wall = {
            "n": len(units_s),
            "raw_mean_s": statistics.mean(units_s),
            "raw_median_s": statistics.median(units_s),
            "raw_p75_s": percentile(units_s, 0.75),
            "rows_per_unit": workload.rows,
            "rows_per_s": workload.rows / wall_s,
            "units_s": units_s,
            "noise_ratio": percentile(units_s, 0.75) / percentile(units_s, 0.25),
        }
    return run.record(
        "end_to_end",
        metrics,
        END_TO_END_BY_NAME,
        check=check,
        wall=wall,
        setup_runs_s=setups,
        sim_units=sim_units,
        latency_samples=len(latencies),
        host={"import_s": run.import_s},
        calibration=calibration.summary(),
    )


def _count_python_calls(fn) -> int:
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _serve_counts(workload) -> dict | None:
    report = workload.serve_report()
    if report is None:
        return None
    return {
        "requests": report.served_requests,
        "rows": report.served_rows,
        "batches": report.batches,
        "padded_rows": report.padded_rows,
        "rerouted": report.rerouted_requests,
        "rejected": report.rejected_requests,
        "responses": len(workload.serve_responses()),
    }


def run_per_layer(run: _Run, seconds: float, reps: int | None, spans_path: str | None) -> dict:
    """Set up once, then alternate untraced and traced units; afterwards
    one unit each under ``sys.setprofile`` and ``tracemalloc``, and three
    with the transcript recorder attached."""
    from calibration import Calibration
    from layers import TelemetryDelta, layer_metrics
    from metrics import PER_LAYER_BY_NAME, percentile
    from tracer import Tracer

    calibration = Calibration()
    check = run.check(run.cls(run.seed))
    workload = run.cls(run.seed)
    workload.setup()

    tracer = Tracer()
    telemetry = TelemetryDelta(workload.contexts())
    serve_before = _serve_counts(workload)
    plain_s: list[float] = []
    traced_s: list[float] = []
    pairs = reps or MIN_PAIRS
    deadline = time.perf_counter() + TRACED_SHARE * seconds
    while len(traced_s) < pairs or (reps is None and time.perf_counter() < deadline):
        unit_s, result = run.unit(workload)
        if result is None:
            break
        plain_s.append(unit_s)
        calibration.probe()
        telemetry.harvest(result.contexts)
        with tracer:
            unit_s, result = run.unit(workload)
        if result is None:
            break
        traced_s.append(unit_s)
        telemetry.harvest(result.contexts)

    serve = None
    if serve_before is not None:
        after = _serve_counts(workload)
        serve = {key: after[key] - serve_before[key] for key in after}
        fresh = workload.serve_responses()[serve_before["responses"] :]
        serve["queue_wait_s"] = [resp.response.queue_wait_s for resp in fresh]
        serve["service_s"] = [resp.response.service_s for resp in fresh]

    groups = tracer.aggregate() if traced_s else {}
    metrics = {}
    if traced_s and run.error is None:
        py_calls = _count_python_calls(lambda: run.unit(workload))
        tracemalloc.start()
        run.unit(workload)
        alloc_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        workload.start_audit()
        audit_s = [run.unit(workload)[0] for _ in range(AUDIT_UNITS)]
        audit_s = [s for s in audit_s if s is not None]
        metrics = layer_metrics(
            groups=groups,
            tally=tracer.tally,
            traced_units=len(traced_s),
            traced_unit_s=sum(traced_s) / len(traced_s),
            telemetry=telemetry,
            serve=serve,
            max_abs_err=check["max_abs_err"],
            audit={
                "records": workload.audit_records() / max(len(audit_s), 1),
                "tap_overhead_share": (
                    statistics.median(audit_s) / statistics.median(plain_s) - 1
                    if audit_s
                    else None
                ),
            },
            host={
                "host.import_s": run.import_s,
                "host.probe_s": calibration.mean_s,
                "host.noise_ratio": percentile(plain_s, 0.75) / percentile(plain_s, 0.25),
                "host.py_calls": py_calls,
                "host.alloc_peak_mb": alloc_peak / 2**20,
                "host.trace_overhead_share": statistics.median(traced_s)
                / statistics.median(plain_s)
                - 1,
            },
        )
    run.failed += workload.finish()
    record = run.record(
        "per_layer",
        metrics,
        PER_LAYER_BY_NAME,
        check=check,
        trace={
            "unresolved": tracer.unresolved,
            "traced_units": len(traced_s),
            "untraced_units_s": plain_s,
            "traced_units_s": traced_s,
            "groups": groups,
        },
    )
    if spans_path:
        Path(spans_path).write_text(json.dumps(tracer.span_table()) + "\n")
    return record


# -- reporting ----------------------------------------------------------------


def _environment(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "seed": seed,
        "git_sha": sha or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_pins": PINS,
    }


def _print_table(record: dict) -> None:
    status = "ok" if record["correct"] else "FAILED"
    print(
        f"== {record['workload']} [{record['pass']}] seed {record['seed']}: {status}; "
        f"ops {record['ops_attempted']} attempted, {record['ops_failed']} failed; "
        f"max|secure-plain| {record['check']['max_abs_err']:.3g} (tol {record['check']['tol']:g})"
    )
    for name, row in record["metrics"].items():
        value = "null (unresolved)" if row["value"] is None else f"{row['value']:.6g}"
        bound = f", bound {row['bound']:g}" if "bound" in row else ""
        print(f"  {name:<36} {value:>14} {row['unit']} [{row['clock']}{bound}]")
    wall = record.get("wall")
    if wall:
        job = record["calibration"]
        print(
            f"  setup_s and wall_s are calibrated: raw seconds x {job['factor']:.3f} "
            f"(calibration job {job['job_mean_s']:.4f} s here, {job['reference_s']} s reference)\n"
            f"  wall_s is the mean of n={wall['n']} units (raw mean {wall['raw_mean_s']:.4f} s, "
            f"median {wall['raw_median_s']:.4f} s, p75 {wall['raw_p75_s']:.4f} s); "
            f"{wall['rows_per_unit']} rows/unit -> {wall['rows_per_s']:.1f} rows/s\n"
            f"  sim and count metrics cover the first {record['sim_units']} units "
            f"({record['latency_samples']} latency samples)"
        )
    trace = record.get("trace")
    if trace:
        print(f"  trace.unresolved: {trace['unresolved'] or 'none'}")


def _contract_line(record: dict) -> str:
    """The result object of the benchmark contract (numbers only: a metric
    whose trace targets are all unresolved reads 0 here, null in --out)."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": max(record["ops_attempted"], 1),
            "failed": record["ops_failed"],
            "metrics": {
                name: {"value": 0 if row["value"] is None else row["value"], "unit": row["unit"]}
                for name, row in record["metrics"].items()
            },
        }
    )


def _write_out(path: str | None, seed: int, runs: list[dict]) -> None:
    if path:
        document = {"environment": _environment(seed), "runs": runs, "claim": None}
        Path(path).write_text(json.dumps(document, indent=1) + "\n")


def run_children(args, names: list[str], passes: list[int]) -> int:
    """One child process per (workload, pass), strictly one at a time."""
    runs = []
    status = 0
    with tempfile.TemporaryDirectory(prefix=".run-", dir=PERF_DIR) as scratch:
        for name in names:
            for trace in passes:
                out = Path(scratch) / f"{name}.{trace}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed), "--trace", str(trace),
                    "--seconds", str(args.seconds), "--out", str(out),
                ]  # fmt: skip
                if args.reps is not None:
                    command += ["--reps", str(args.reps)]
                child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                sys.stderr.write(child.stderr)
                print("\n".join(child.stdout.splitlines()[:-1]))
                status = status or child.returncode
                if out.exists():
                    runs += json.loads(out.read_text())["runs"]
    _write_out(args.out, args.seed, runs)
    print(
        json.dumps(
            {
                "workloads": names,
                "runs": len(runs),
                "ops_failed": sum(r["ops_failed"] for r in runs),
                "correct": status == 0 and all(r["correct"] for r in runs),
                "claim": None,
            }
        )
    )
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all six)")  # fmt: skip
    parser.add_argument("--seed", type=int, default=0,
                        help="drives input generation and FrameworkConfig.seed")  # fmt: skip
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one pass measures")  # fmt: skip
    parser.add_argument("--reps", type=int, default=None,
                        help="run exactly this many timed units instead of --seconds")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass, 1: per-layer pass (default: both)")  # fmt: skip
    parser.add_argument("--out", metavar="FILE", help="write the full JSON record here")
    parser.add_argument("--spans", metavar="FILE",
                        help="write every span of a single --trace 1 pass here")  # fmt: skip
    args = parser.parse_args()
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINS.items()):
        # thread pins and the hash seed only take effect at interpreter start
        os.environ.update(PINS)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(ROOT / "src"), str(PERF_DIR)]

    from metrics import WORKLOAD_NAMES

    names = args.workload or list(WORKLOAD_NAMES)
    unknown = sorted(set(names) - set(WORKLOAD_NAMES))
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {list(WORKLOAD_NAMES)}")
    passes = [args.trace] if args.trace is not None else [0, 1]
    if args.spans and (len(names) > 1 or passes != [1]):
        parser.error("--spans needs one --workload and --trace 1")
    if len(names) > 1 or len(passes) > 1:
        return run_children(args, names, passes)

    start = time.perf_counter()
    import numpy  # noqa: F401
    import repro  # noqa: F401

    run = _Run(names[0], args.seed, import_s=time.perf_counter() - start)
    if passes[0] == 0:
        record = run_end_to_end(run, args.seconds, args.reps)
    else:
        record = run_per_layer(run, args.seconds, args.reps, args.spans)
    _print_table(record)
    _write_out(args.out, args.seed, [record])
    print(_contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
