"""Regenerate (or check) the workload reference transcripts.

The committed JSON files under ``tests/data/`` pin the wire behaviour of
the attention and recsys workloads on both protocol backends: an
inference conformance run must replay bit-identically against its pin
(``Transcript.diff`` empty — every message's blake2b payload digest,
size, ordering and routing).  Run from the repo root:

    PYTHONPATH=src python scripts/gen_workload_transcripts.py
    PYTHONPATH=src python scripts/gen_workload_transcripts.py --check
"""

import sys

from _pins import check_flag, pin

from repro.audit.conformance import ConformanceCase, run_conformance_case

MODELS = ("attention", "recsys")
BACKENDS = ("beaver2pc", "rep3")


def main() -> int:
    check = check_flag(__doc__.splitlines()[0])
    ok = True
    for model in MODELS:
        for backend in BACKENDS:
            case = ConformanceCase(model=model, axis="baseline", backend=backend)
            result = run_conformance_case(case, audit=True, capture_payloads=True)
            if not result.agreed:
                print(f"{model}/{backend} diverged from the plain twin")
                ok = False
                continue
            t = result.transcript
            t.meta["artifact"] = f"{model} workload reference ({backend}, infer)"
            ok &= pin(t, f"tests/data/{model}_{backend}_infer_transcript.json", check=check)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
