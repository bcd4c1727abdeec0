"""Self-test of the benchmark: ``python -m pytest perf -q`` (about 4 min).

Not part of tier-1 (``testpaths`` is ``tests``).  Two full ``--reps 2``
runs of ``perf/run.py`` back the checks that need real numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

import metrics  # noqa: E402
from layers import _field  # noqa: E402
from tracer import TARGETS, Target, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two identical all-workload runs; (records, last stdout line) each."""
    out = []
    for tag in ("a", "b"):
        path = tmp_path_factory.mktemp("perf") / f"{tag}.json"
        done = subprocess.run(
            [sys.executable, str(PERF / "run.py"), "--reps", "2", "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=1800,
        )  # fmt: skip
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        out.append((json.loads(path.read_text()), done.stdout.strip().splitlines()[-1]))
    return out


def _by_key(document: dict) -> dict:
    return {(run["workload"], run["pass"]): run for run in document["runs"]}


def test_every_workload_reports_every_metric_without_failures(two_runs):
    document, last_line = two_runs[0]
    runs = _by_key(document)
    assert set(runs) == {
        (w, p) for w in metrics.WORKLOAD_NAMES for p in ("end_to_end", "per_layer")
    }
    for (workload, pass_name), run in runs.items():
        catalogue = metrics.END_TO_END if pass_name == "end_to_end" else metrics.PER_LAYER
        assert list(run["metrics"]) == [m.name for m in catalogue], (workload, pass_name)
        assert run["correct"] and run["ops_failed"] == 0 and run["ops_attempted"] >= 1
        for name, row in run["metrics"].items():
            assert isinstance(row["value"], (int, float)), (workload, name)
        if pass_name == "end_to_end":
            # the contract asks for end-to-end metrics that are never 0
            assert all(row["value"] > 0 for row in run["metrics"].values()), workload
        else:
            assert run["trace"]["unresolved"] == []
    assert list(document)[-1] == "claim" and document["claim"] is None
    summary = json.loads(last_line)
    assert summary["correct"] and summary["ops_failed"] == 0 and summary["claim"] is None


def test_simulated_and_counted_metrics_repeat_exactly(two_runs):
    first, second = (_by_key(document) for document, _ in two_runs)
    catalogue = {m.name: m for m in (*metrics.END_TO_END, *metrics.PER_LAYER)}
    compared = 0
    for key, run in first.items():
        for name, row in run["metrics"].items():
            if catalogue[name].clock != "host":
                assert row["value"] == second[key]["metrics"][name]["value"], (key, name)
                compared += 1
    assert compared > 6 * 30


def test_names_are_well_formed():
    names = [*metrics.WORKLOAD_NAMES, *(m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER))]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for target in TARGETS:
        assert target.group.split(".")[0] in {m.name.split(".")[0] for m in metrics.PER_LAYER}


def test_benchmark_json_declares_the_same_names_units_and_bounds():
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["command"] == ["python3", "perf/run.py"] and declared["paths"] == ["perf"]
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(metrics.WORKLOAD_NAMES)
    for row in declared["workloads"]:
        assert row["why"] == WORKLOADS[row["name"]].why and len(row["why"]) <= 200
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert len(declared["workloads"]) == 6 and len(declared["end_to_end"]) == 9
    assert len(declared["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}


def test_unresolved_trace_target_degrades_to_null():
    import repro
    from repro.fixedpoint import ring

    original = ring.ring_add
    tracer = Tracer(
        (
            Target("repro.fixedpoint.ring:ring_add", "fixedpoint.elementwise"),
            Target("repro.fixedpoint.ring:deleted_kernel", "fixedpoint.elementwise"),
            Target("repro.serve.deleted_module:Server.pump", "serve.deleted"),
            Target("repro.serve.replica:Replica.deleted_method", "serve.deleted"),
        )
    )
    with tracer:
        assert ring.ring_add is not original and repro.fixedpoint.ring_add is ring.ring_add
        ring.ring_add(ring.RING_DTYPE(1), ring.RING_DTYPE(2))
    assert ring.ring_add is original and repro.fixedpoint.ring_add is original
    assert tracer.unresolved == [
        "repro.fixedpoint.ring:deleted_kernel",
        "repro.serve.deleted_module:Server.pump",
        "repro.serve.replica:Replica.deleted_method",
    ]
    groups = tracer.aggregate()
    # one live target keeps its group measured; a group with none left is null
    assert groups["fixedpoint.elementwise"]["calls"] == 1
    assert groups["serve.deleted"] is None
    assert _field(groups, "serve.deleted", "self_s", 1) is None
