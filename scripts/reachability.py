#!/usr/bin/env python3
"""List the functions in src/repro that no entry point outside the tests enters.

    python scripts/reachability.py

Runs every entry point CI runs outside tier-1 (the examples, the fleet
example's chaos invocation, one ``perf/run.py --trace 0`` pass per
workload and CI's two ``--trace 1`` passes, all of ``benchmarks/``, the ``python -m repro.bench`` smokes
and both golden ``--check`` scripts), each in its own child process
under ``sys.setprofile``, and prints each child's exit status.  Then it
prints every function and method defined in ``src/repro`` (nested
functions aside) that none of them entered, with its line count, and
exits 1 if any of those is not on ``ALLOW`` or an ``ALLOW`` entry was
entered after all.  A function only tests reach belongs in ``tests/``
or nowhere; what stays has exactly one reason from ``REASONS``.

A child's non-zero exit status is printed, not fatal: the paper figures'
own gate is CI's ``paper-figures`` job.  Takes ~10 min on two cores,
most of it the paper figures under the hook.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

# perf/run.py re-executes itself (losing the hook) unless these are set;
# every child gets them, as perf/run.py's own children do.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

WORKLOADS = (
    "train_mlp", "train_cnn", "train_attention",
    "infer_mlp_rep3", "cold_start", "serve_fleet",
)  # fmt: skip

# (kind, target, argv): kind "path" runs a file as __main__, "module" a module.
ENTRY_POINTS = (
    *(("path", f"examples/{name}.py", ()) for name in (
        "quickstart", "secure_mnist_training", "secure_matrix_analytics",
        "secure_inference_service", "fault_tolerance", "resnet_transfer_learning",
        "systems_tour",
    )),  # fmt: skip
    ("path", "examples/secure_inference_service.py",
     ("--clients", "6", "--requests", "3", "--replicas", "2", "--chaos-seed", "7")),
    *(("path", "perf/run.py", ("--workload", name, "--trace", "0", "--reps", "2"))
      for name in WORKLOADS),
    # CI's traced passes (its "Trace targets still resolve" step)
    *(("path", "perf/run.py", ("--workload", name, "--trace", "1", "--reps", "2"))
      for name in ("train_cnn", "train_mlp")),
    # pytest-benchmark pauses the profile hook around each timed call
    # unless benchmarking is disabled.
    ("module", "pytest", ("-q", "-p", "no:cacheprovider", "--benchmark-disable", "benchmarks")),
    ("module", "repro.bench", ("MLP", "MNIST", "--system", "par", "--batches", "2",
                               "--batch-size", "64", "--backend", "rep3")),
    ("module", "repro.bench", ("MLP", "MNIST", "--system", "par", "--batches", "2",
                               "--batch-size", "64", "--backend", "beaver2pc", "--audit")),
    *(("module", "repro.bench", ("attention", "SYNTHETIC", "--system", "par", "--batches", "2",
                                 "--batch-size", "32", "--backend", backend, "--audit"))
      for backend in ("beaver2pc", "rep3")),
    ("path", "scripts/gen_reference_transcript.py", ("--check",)),
    ("path", "scripts/gen_workload_transcripts.py", ("--check",)),
)  # fmt: skip

# Runs in each child: record every code object a frame runs, run the
# target as __main__, then write the src/repro ones as (file, first line).
CHILD = """
import json, os, runpy, sys, threading
out, package, kind, target, *argv = sys.argv[1:]
seen = set()
hook = lambda frame, event, arg, add=seen.add: add(frame.f_code)
sys.argv = [target, *argv]
if kind == "path":
    sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
status = 0
threading.setprofile(hook)
sys.setprofile(hook)
try:
    if kind == "path":
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit as stop:
    status = stop.code
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    with open(out, "w") as f:
        json.dump(sorted({(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen
                          if os.path.realpath(c.co_filename).startswith(package)}), f)
sys.exit(status)
"""

REASONS = (
    "interface method",
    "safety code or test oracle",
    "fault recovery under chaos",
    "bound by perf/tracer.py",
    "public API named in README",
)

# Functions no entry point enters that stay, each with one reason from REASONS.
ALLOW = {
    # interface methods: the base classes' contract, and the overrides no
    # workload reaches
    "repro.baselines.plain:PlainLayer.backward": "interface method",
    "repro.baselines.plain:PlainLayer.forward": "interface method",
    "repro.core.layers:SecureLayer.backward": "interface method",
    "repro.core.layers:SecureLayer.forward": "interface method",
    "repro.core.layers:SecureRNNCell.parameters": "interface method",
    "repro.core.optim:SGD.update": "interface method",
    "repro.core.resnet:SecureResidualBlock.apply_gradients": "interface method",
    "repro.protocols.base:ProtocolBackend.compare_const": "interface method",
    "repro.protocols.base:ProtocolBackend.elementwise_mul": "interface method",
    "repro.protocols.base:ProtocolBackend.matmul": "interface method",
    "repro.protocols.base:ProtocolBackend.reconstruct": "interface method",
    "repro.protocols.base:ProtocolBackend.share_secret": "interface method",
    "repro.protocols.base:ProtocolBackend.truncate": "interface method",
    "repro.protocols.base:ProtocolBackend.truncate_values": "interface method",
    "repro.protocols.base:ProtocolBackend.upload_nbytes": "interface method",
    "repro.protocols.base:ProtocolBackend.upload_payloads": "interface method",
    "repro.protocols.beaver2pc:Beaver2PCBackend.reconstruct": "interface method",
    "repro.protocols.rep3:Rep3Backend.reconstruct": "interface method",
    # safety code and test oracles: the audit, conformance and replay
    # harness; encode_frame/decode_frame, frame_sizes's oracle (DESIGN 5f);
    # the plain twins; the clock's and devices' observation points the
    # schedule and residency checks read (free_at, the counter views)
    "repro.audit.conformance:ConformanceResult.describe": "safety code or test oracle",
    "repro.audit.conformance:assert_bit_identical": "safety code or test oracle",
    "repro.audit.conformance:disagreements": "safety code or test oracle",
    "repro.audit.conformance:run_conformance_sweep": "safety code or test oracle",
    "repro.audit.transcript:Transcript.assert_identical": "safety code or test oracle",
    "repro.audit.transcript:Transcript.dump": "safety code or test oracle",
    "repro.audit.transcript:Transcript.to_json": "safety code or test oracle",
    "repro.audit.transcript:Transcript.total_bytes": "safety code or test oracle",
    "repro.audit.transcript:TranscriptDivergence.describe": "safety code or test oracle",
    "repro.audit.transcript:TranscriptRecord.to_json": "safety code or test oracle",
    "repro.audit.wire:WireAuditReport.assert_clean": "safety code or test oracle",
    "repro.audit.wire:WireAuditReport.max_chi2": "safety code or test oracle",
    "repro.audit.wire:assert_byte_accounting": "safety code or test oracle",
    "repro.baselines.plain:PlainEmbedding.apply_gradients": "safety code or test oracle",
    "repro.baselines.plain:PlainEmbedding.backward": "safety code or test oracle",
    "repro.baselines.plain:PlainModel.parameters": "safety code or test oracle",
    "repro.comm.wire:PackedFrame.encode": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.__init__": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.exhausted": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.i64": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.take": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.u16": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.u32": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.u64": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.u8": "safety code or test oracle",
    "repro.comm.wire:_FrameReader.value": "safety code or test oracle",
    "repro.comm.wire:_array_body": "safety code or test oracle",
    "repro.comm.wire:_emit": "safety code or test oracle",
    "repro.comm.wire:_frame_chunks": "safety code or test oracle",
    "repro.comm.wire:_scalar": "safety code or test oracle",
    "repro.comm.wire:content_bytes": "safety code or test oracle",
    "repro.comm.wire:decode_frame": "safety code or test oracle",
    "repro.comm.wire:encode_frame": "safety code or test oracle",
    "repro.comm.wire:unpack_frame": "safety code or test oracle",
    "repro.fixedpoint.truncation:truncate_public": "safety code or test oracle",
    "repro.mpc.softmax:softmax_error_bound": "safety code or test oracle",
    "repro.protocols.rep3:rep3_reconstruct": "safety code or test oracle",
    "repro.serve.replica:Replica.wire_audit": "safety code or test oracle",
    "repro.simgpu.clock:SimClock.free_at": "safety code or test oracle",
    "repro.simgpu.device:SimGPU.d2h_bytes": "safety code or test oracle",
    "repro.simgpu.device:SimGPU.gemm_count": "safety code or test oracle",
    "repro.simgpu.device:SimGPU.gemm_flops": "safety code or test oracle",
    # fault recovery that runs only when a fault plan fires
    "repro.faults.plan:LinkPartition.__post_init__": "fault recovery under chaos",
    "repro.faults.plan:LinkPartition.covers": "fault recovery under chaos",
    "repro.serve.fleet:SecureServingFleet._force_ticket": "fault recovery under chaos",
    "repro.serve.queue:RequestQueue.admit_forced": "fault recovery under chaos",
    "repro.serve.replica:Replica.force_admit": "fault recovery under chaos",
    # names the frozen perf/tracer.py binds: deleting one moves trace.unresolved
    "repro.core.tensor:SharedTensor.mul_public_int": "bound by perf/tracer.py",
    "repro.fixedpoint.encoding:FixedPointEncoder.encode_int": "bound by perf/tracer.py",
    "repro.mpc.shares:reconstruct": "bound by perf/tracer.py",
    "repro.simgpu.device:SimGPU.d2h": "bound by perf/tracer.py",
    "repro.simgpu.device:SimGPU.elementwise": "bound by perf/tracer.py",
    "repro.simgpu.device:SimGPU.gemm_ring": "bound by perf/tracer.py",
    "repro.simgpu.device:SimGPU.h2d": "bound by perf/tracer.py",
    "repro.telemetry.registry:Gauge.value": "bound by perf/tracer.py",
    "repro.telemetry.registry:Histogram.observe": "bound by perf/tracer.py",
    # public API README names: api.serve, retire_replica, the JSON and
    # Chrome-trace exporters, and what only they call
    "repro.api:serve": "public API named in README",
    "repro.serve.fleet:FleetRouter.get": "public API named in README",
    "repro.serve.fleet:FleetRouter.remove": "public API named in README",
    "repro.serve.fleet:SecureServingFleet.retire_replica": "public API named in README",
    "repro.telemetry.core:Telemetry.chrome_trace_events": "public API named in README",
    "repro.telemetry.core:Telemetry.clocks": "public API named in README",
    "repro.telemetry.core:Telemetry.export_chrome_trace": "public API named in README",
    "repro.telemetry.export:_clock_events": "public API named in README",
    "repro.telemetry.export:chrome_trace_events": "public API named in README",
    "repro.telemetry.export:export_chrome_trace": "public API named in README",
}


def defined_functions(package: Path = PACKAGE) -> dict[str, tuple[str, int, int]]:
    """``"repro.mod:Qual.name" -> (file, first line, line count)`` for every
    function and method in ``package``, read by AST (nested functions aside).

    The first line is the first decorator's, as in the code object.
    """
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{module}:{prefix}{child.name}"
                    found[name] = (str(path), first, child.end_lineno - first + 1)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def run_entry_points() -> set[tuple[str, int]]:
    """Run every entry point under the hook; the (file, first line) pairs entered."""
    env = {**os.environ, **PINS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    entered = set()
    with tempfile.TemporaryDirectory() as scratch:
        for n, (kind, target, argv) in enumerate(ENTRY_POINTS):
            out = Path(scratch) / f"{n}.json"
            package = str(PACKAGE.resolve()) + os.sep
            command = [sys.executable, "-c", CHILD, str(out), package, kind, target, *argv]
            start = time.perf_counter()
            child = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
            seconds = time.perf_counter() - start
            print(f"exit {child.returncode:3d}  {seconds:6.1f} s  {target} {' '.join(argv)}",
                  flush=True)  # fmt: skip
            if child.returncode:
                tail = (child.stdout + child.stderr).splitlines()[-15:]
                print("\n".join("      | " + line for line in tail), flush=True)
            if out.exists():
                entered |= {tuple(pair) for pair in json.loads(out.read_text())}
    return entered


def main() -> int:
    functions = defined_functions()
    entered = run_entry_points()
    unentered = {
        name: lines for name, (path, first, lines) in functions.items()
        if (os.path.realpath(path), first) not in entered
    }  # fmt: skip
    print(
        f"\nentered {len(functions) - len(unentered)} of {len(functions)} functions; "
        f"{len(unentered)} not entered ({sum(unentered.values())} lines):"
    )
    missing = []
    for name, lines in sorted(unentered.items()):
        reason = ALLOW.get(name)
        print(f"  {lines:4d}  {name}  [{reason or 'NOT ALLOWED'}]")
        if reason is None:
            missing.append(name)
    stale = sorted(name for name in ALLOW if name not in unentered)
    for name in stale:
        print(f"  entered or gone, drop it from ALLOW: {name}")
    if missing:
        print(f"{len(missing)} unentered functions are not on ALLOW: delete them, "
              "or allow-list them with one reason from REASONS")  # fmt: skip
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
