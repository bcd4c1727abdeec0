#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perf/compare.py A1.json A2.json ... -- B1.json B2.json ...

The files are ``perf/run.py --out`` records; A is the parent commit (or
the first half of an A/A check), B the change.  For every (workload,
end-to-end metric) the table gives each side's median and quartiles and
one verdict, judged with the benchmark's own bounds:

* ``equal`` / ``differs`` — exact (simulated or counted) metrics: every
  value of B equals A's value at the same seed, or it does not (the
  relative move of the medians is printed; a host-only change must
  leave all of these equal);
* ``unresolved`` — a side's quartile spread exceeds the metric's bound,
  so the runs cannot tell a regression of that size from noise;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own quartile spread;
* ``same`` — none of the above.

Exit status 1 when any row reads worse, unresolved or differs.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, quartiles  # noqa: E402


def load(paths: list[str]) -> dict:
    """{(workload, metric): [(seed, value), ...]} over end-to-end runs."""
    values = defaultdict(list)
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["pass"] != "end_to_end":
                continue
            for name, row in run["metrics"].items():
                values[(run["workload"], name)].append((run["seed"], row["value"]))
    return values


def verdict(spec, a: list[tuple], b: list[tuple]) -> tuple[str, str]:
    """(verdict, note) for one metric given (seed, value) samples."""
    a_q1, a_med, a_q3 = quartiles([v for _, v in a])
    b_q1, b_med, b_q3 = quartiles([v for _, v in b])
    sign = 1 if spec.better == "lower" else -1
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    note = f"{worse_by:+.2%}"
    if spec.exact:
        by_seed_a, by_seed_b = defaultdict(set), defaultdict(set)
        for seed, value in a:
            by_seed_a[seed].add(value)
        for seed, value in b:
            by_seed_b[seed].add(value)
        shared = set(by_seed_a) & set(by_seed_b)
        if shared and all(by_seed_a[s] == by_seed_b[s] and len(by_seed_a[s]) == 1 for s in shared):
            return "equal", note
        return "differs", note + (" (no seed in common)" if not shared else "")
    a_spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    b_spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    note += f", spread A {a_spread:.1%} B {b_spread:.1%}"
    if max(a_spread, b_spread) > spec.bound:
        return "unresolved", note
    if worse_by > spec.bound:
        return "worse", note
    if -worse_by > a_spread and -worse_by > 0:
        return "better", note
    return "same", note


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a, b = load(argv[:split]), load(argv[split + 1 :])
    bad = 0
    header = (
        f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':<40} "
        f"{'B median [q1, q3]':<40} {'bound':>6}  verdict"
    )
    print(header)
    for workload in sorted({w for w, _ in a} & {w for w, _ in b}):
        for spec in END_TO_END:
            key = (workload, spec.name)
            if key not in a or key not in b:
                continue
            result, note = verdict(spec, a[key], b[key])
            bad += result in ("worse", "unresolved", "differs")
            cells = []
            for side in (a[key], b[key]):
                q1, med, q3 = quartiles([v for _, v in side])
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(side)}")
            print(
                f"{workload:<16} {spec.name:<18} {cells[0]:<40} {cells[1]:<40} "
                f"{spec.bound:>6g}  {result} ({note})"
            )
    print(f"{bad} row(s) worse, unresolved or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
