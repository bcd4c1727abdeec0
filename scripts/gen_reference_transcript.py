"""Regenerate (or check) the beaver2pc reference transcript artifact.

The committed JSON under ``tests/data/`` pins the wire behaviour of the
default 2PC backend on two MLP training batches: a run with
``backend="beaver2pc"`` must replay bit-identically against it
(``Transcript.diff`` empty).  Run from the repo root:

    PYTHONPATH=src python scripts/gen_reference_transcript.py
    PYTHONPATH=src python scripts/gen_reference_transcript.py --check
"""

import sys

from _pins import check_flag, pin

from repro.audit.conformance import ConformanceCase, run_conformance_case

PATH = "tests/data/beaver2pc_mlp_train_transcript.json"


def main() -> int:
    check = check_flag(__doc__.splitlines()[0])
    case = ConformanceCase(model="MLP", axis="baseline", train=True)
    result = run_conformance_case(case, audit=True, capture_payloads=True)
    if not result.agreed:
        print("MLP/beaver2pc training diverged from the plain twin")
        return 1
    t = result.transcript
    t.meta["artifact"] = "beaver2pc reference (MLP, train)"
    return 0 if pin(t, PATH, check=check) else 1


if __name__ == "__main__":
    sys.exit(main())
