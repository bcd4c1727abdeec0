"""Protocol conformance harness: transcripts, wire audits, differential oracle.

Three correctness backstops every perf PR runs against:

* :mod:`repro.audit.transcript` — record every message a run puts on
  the wire; replay and assert bit-identity (``Transcript.assert_identical``).
* :mod:`repro.audit.wire` — chi-square each server's recorded traffic
  against uniform ring noise (the semi-honest wire-view argument).
* :mod:`repro.audit.conformance` — sweep every model in
  :data:`repro.core.models.MODELS` across the optimization axes against
  its plain twin.
"""

from repro.audit.conformance import (
    BIT_IDENTICAL_AXES,
    CONFORMANCE_AXES,
    CONFORMANCE_GEOMETRY,
    CONFORMANCE_MODELS,
    ConformanceCase,
    ConformanceResult,
    assert_bit_identical,
    conformance_workload,
    disagreements,
    run_conformance_case,
    run_conformance_sweep,
)
from repro.audit.transcript import (
    Transcript,
    TranscriptRecord,
    TranscriptRecorder,
    canonical_bytes,
    content_bytes,
    payload_digest,
)
from repro.audit.wire import (
    CHI2_CEILING,
    MIN_AUDIT_BYTES,
    LinkAudit,
    WireAuditReport,
    audit_context,
    audit_transcript,
    chi2_uniform_bytes,
)

__all__ = [
    "BIT_IDENTICAL_AXES",
    "CHI2_CEILING",
    "CONFORMANCE_AXES",
    "CONFORMANCE_GEOMETRY",
    "CONFORMANCE_MODELS",
    "ConformanceCase",
    "ConformanceResult",
    "LinkAudit",
    "MIN_AUDIT_BYTES",
    "Transcript",
    "TranscriptRecord",
    "TranscriptRecorder",
    "WireAuditReport",
    "assert_bit_identical",
    "audit_context",
    "audit_transcript",
    "canonical_bytes",
    "chi2_uniform_bytes",
    "conformance_workload",
    "content_bytes",
    "disagreements",
    "payload_digest",
    "run_conformance_case",
    "run_conformance_sweep",
]
