"""Wire-view auditor: uniformity checks over recorded traffic.

Section 2.2's semi-honest argument says everything a single server
receives is masked by fresh one-time pads, so its wire view must be
statistically indistinguishable from uniform ring noise.  The in-memory
security tests already assert that for shares as the protocol holds
them; this module re-runs the same chi-square byte-frequency test over
what a run actually *recorded on the wire*, link by link — which is
where an optimization bug would leak (a cached masked difference served
to the wrong batch, a CSR delta that skipped re-masking, a debug path
that serialized plaintext).

The statistic matches ``tests/test_security.py``: byte frequencies over
256 bins against the uniform expectation, 255 degrees of freedom, and a
ceiling of 420 (roughly seven sigma — astronomically improbable for
genuinely masked traffic, instantly exceeded by structured data).

Links with fewer than :data:`MIN_AUDIT_BYTES` captured bytes are
reported as ``skipped`` rather than judged: the chi-square approximation
needs a few observations per bin before its tail is meaningful.

**What is judged** (the model, argued in DESIGN §5).  A Beaver mask is
stable: under one mask ``U`` two openings ``E_j = X_j - U`` and
``E_{j+1} = X_{j+1} - U`` differ by the public ``X_{j+1} - X_j`` by
construction, so the bytes that repeat between them say which elements
did not change — the paper's §4.4 premise, not a leak of this
implementation — and they are no fresh uniform samples.  Every masked
part therefore carries its ``(mask uid, value uid)``
(``record_wire(masks=...)``), and per mask the auditor judges the
*first* opening in full and of a later opening the bytes that differ
from the previous one, each byte position once: under one mask a
position contributes its first byte and the first byte that replaced
it, nothing after (a byte whose plaintext flips sign every other batch
walks ``h, h-1, h`` and would otherwise be counted twice).  The same
``(mask, value)`` seen again (the dealing step re-opens a value under
the mask it shares, possibly transposed) contributes nothing.  What
a stable mask must never do is open two *different* values inside one
online step — that would put their difference on the wire within a
step — and the audit fails when a transcript shows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.audit.transcript import Transcript
from repro.util.errors import AuditError

#: Chi-square acceptance ceiling for 255 degrees of freedom (~7 sigma),
#: shared with the in-memory security suite.
CHI2_CEILING = 420.0

#: Minimum captured bytes per link before the chi-square verdict counts
#: (~8 expected observations per bin).
MIN_AUDIT_BYTES = 2048


def chi2_uniform_bytes(buf) -> float:
    """Chi-square statistic of byte frequencies against uniform.

    Accepts raw ``bytes`` or any ndarray (viewed as its underlying
    bytes).  255 degrees of freedom; uniform data lands near 255.
    """
    if isinstance(buf, (bytes, bytearray, memoryview)):
        data = np.frombuffer(bytes(buf), dtype=np.uint8)
    else:
        data = np.ascontiguousarray(buf).reshape(-1).view(np.uint8)
    if data.size == 0:
        raise AuditError("chi2_uniform_bytes: empty buffer")
    counts = np.bincount(data, minlength=256).astype(np.float64)
    expected = data.size / 256.0
    return float(((counts - expected) ** 2 / expected).sum())


@dataclass(frozen=True)
class LinkAudit:
    """Verdict for one directed link's recorded traffic."""

    src: str
    dst: str
    messages: int
    content_bytes: int
    wire_bytes: int
    chi2: float | None
    ceiling: float
    skipped: bool
    reason: str = ""

    @property
    def link(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def passed(self) -> bool:
        return self.skipped or (self.chi2 is not None and self.chi2 <= self.ceiling)

    def describe(self) -> str:
        if self.skipped:
            return f"{self.link}: skipped ({self.reason})"
        verdict = "ok" if self.passed else "LEAK"
        return (
            f"{self.link}: chi2={self.chi2:.1f} (ceiling {self.ceiling:.0f}) "
            f"over {self.content_bytes} bytes / {self.messages} messages -> {verdict}"
        )


@dataclass
class WireAuditReport:
    """All link verdicts for one transcript, plus the mask invariant:
    ``mask_violations`` names every mask that opened two different
    values inside one online step."""

    audits: list[LinkAudit]
    ceiling: float
    mask_violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mask_violations and all(a.passed for a in self.audits)

    @property
    def failures(self) -> list[LinkAudit]:
        return [a for a in self.audits if not a.passed]

    @property
    def max_chi2(self) -> float:
        stats = [a.chi2 for a in self.audits if a.chi2 is not None]
        return max(stats) if stats else 0.0

    def summary(self) -> str:
        judged = [a for a in self.audits if not a.skipped]
        head = (
            f"wire audit: {len(self.audits)} links, {len(judged)} judged, "
            f"{len(self.failures)} failed (ceiling {self.ceiling:.0f})"
        )
        lines = [head, *(f"  {a.describe()}" for a in self.audits)]
        return "\n".join(lines + [f"  MASK REUSE: {v}" for v in self.mask_violations])

    def assert_clean(self, *, context: str = "") -> None:
        if not self.passed:
            prefix = f"{context}: " if context else ""
            raise AuditError(
                prefix + "wire audit failed: "
                + "; ".join([a.describe() for a in self.failures] + self.mask_violations)
            )


def _judged_bytes(records) -> list[bytes]:
    """What one link's records contribute to the statistic, in order."""
    plain: dict[bytes, None] = {}  # distinct mask-less parts, first-seen order
    judged: list[bytes] = []
    seen: set[tuple[int, int]] = set()  # (mask, value) already opened
    last: dict[int, np.ndarray] = {}  # mask -> its latest opening
    moved: dict[int, np.ndarray] = {}  # mask -> positions already judged twice
    for record in records:
        parts = record.parts or ()
        if record.masks is None:
            plain.update(dict.fromkeys(p for p in parts if p))
            continue
        for part, (mask, value) in zip(parts, record.masks):
            if not part or (mask, value) in seen:
                continue
            seen.add((mask, value))
            now = np.frombuffer(part, dtype=np.uint8)
            before = last.get(mask)
            last[mask] = now
            if before is None or before.size != now.size:
                moved[mask] = np.zeros(now.size, dtype=bool)
                judged.append(part)
                continue
            new = (now != before) & ~moved[mask]
            moved[mask] |= new
            judged.append(now[new].tobytes())
    return [*plain, *judged]


def mask_violations(transcript: Transcript) -> list[str]:
    """Every mask that opened two different values inside one online step."""
    opened: dict[tuple[int, int], int] = {}  # (step, mask) -> value
    found: dict[tuple[int, int], str] = {}
    for record in transcript:
        if record.masks is None or record.step is None:
            continue
        for mask, value in record.masks:
            first = opened.setdefault((record.step, mask), value)
            if first != value:
                found.setdefault(
                    (record.step, mask),
                    f"mask {mask} opened two values in online step {record.step} "
                    f"(record {record.seq}, {record.tag})",
                )
    return list(found.values())


def audit_transcript(
    transcript: Transcript,
    *,
    party: str | None = None,
    ceiling: float = CHI2_CEILING,
    min_bytes: int = MIN_AUDIT_BYTES,
    telemetry=None,
) -> WireAuditReport:
    """Chi-square the recorded traffic of every link (or one party's).

    ``party`` restricts the audit to messages *received by* that
    endpoint — the semi-honest adversary's view.  Size-only records
    (no captured payload) contribute to message/byte totals but not to
    the statistic; a link whose captured content is below ``min_bytes``
    is skipped, not judged.

    Parts that carry a mask identity are judged under the stable-mask
    model of the module docstring (first opening in full, then the bytes
    that differ from the previous one, each position once, a repeated
    ``(mask, value)`` never).  Of the
    rest — client uploads, dealer-free backends, retransmitted frames —
    repeated identical parts count once: an exact repeat gives a passive
    observer nothing new, but double-counting its byte histogram would
    scale the chi-square statistic by the repeat factor and fail uniform
    traffic spuriously.  The granularity is one part (an ``E`` or an
    ``F``), not one frame.
    """
    audits: list[LinkAudit] = []
    for src, dst in transcript.links():
        if party is not None and dst != party:
            continue
        records = transcript.records_for(src=src, dst=dst)
        bufs = _judged_bytes(records)
        captured = sum(len(b) for b in bufs)
        wire = sum(r.nbytes for r in records)
        if captured < min_bytes:
            audits.append(LinkAudit(
                src=src, dst=dst, messages=len(records),
                content_bytes=captured, wire_bytes=wire,
                chi2=None, ceiling=ceiling, skipped=True,
                reason=f"{captured} captured bytes < {min_bytes} minimum",
            ))
            continue
        stat = chi2_uniform_bytes(b"".join(bufs))
        audits.append(LinkAudit(
            src=src, dst=dst, messages=len(records),
            content_bytes=captured, wire_bytes=wire,
            chi2=stat, ceiling=ceiling, skipped=False,
        ))
    report = WireAuditReport(
        audits=audits, ceiling=ceiling, mask_violations=mask_violations(transcript)
    )
    if telemetry is not None:
        reg = telemetry.registry
        judged = [a for a in report.audits if not a.skipped]
        reg.counter("audit.links_audited", "links judged by the wire auditor").inc(
            len(judged)
        )
        reg.counter("audit.links_failed", "links over the chi-square ceiling").inc(
            len(report.failures)
        )
        gauge = reg.gauge("audit.chi2", "per-link chi-square statistic")
        for a in judged:
            gauge.set(a.chi2, link=a.link)
    return report


def audit_context(ctx, **kwargs) -> WireAuditReport:
    """Audit the transcript of a context's attached recorder."""
    recorder = getattr(ctx, "recorder", None)
    if recorder is None:
        raise AuditError("context has no attached TranscriptRecorder")
    if kwargs.get("telemetry") is None:
        kwargs["telemetry"] = getattr(ctx, "telemetry", None)
    return audit_transcript(recorder.transcript(), **kwargs)


def assert_byte_accounting(transcript: Transcript, telemetry, *, context: str = "") -> None:
    """Guardrail: transcript frame sizes must equal channel byte charges.

    Every lockstep ``record_wire`` tap carries the exact ``nbytes`` the
    corresponding channel send charged, so per directed link the sum of
    recorded sizes must equal the ``comm.bytes`` counter for that
    ``(src, dst)`` — if the framed codec ever sized a message differently
    from what the simulator charged, the two ledgers diverge here.

    Hub-tapped ``frame/`` records are excluded: actor-runtime traffic is
    charged by the reliable transport, which may retransmit.  The check
    is only meaningful on fault-free runs — retransmissions and injected
    duplicates charge the channel without a matching lockstep record —
    so nonzero ``faults.*`` activity is rejected up front.
    """
    prefix = f"{context}: " if context else ""
    reg = telemetry.registry
    for name in ("faults.retransmits", "faults.duplicates_suppressed"):
        if name in reg and reg.counter(name).value() > 0:
            raise AuditError(
                f"{prefix}byte accounting needs a fault-free run; "
                f"{name} = {reg.counter(name).value():.0f}"
            )
    recorded: dict[tuple[str, str], int] = {}
    for r in transcript:
        if r.tag.startswith("frame/"):
            continue
        recorded[(r.src, r.dst)] = recorded.get((r.src, r.dst), 0) + r.nbytes
    comm_bytes = reg.counter("comm.bytes")
    mismatches = []
    for (src, dst), total in sorted(recorded.items()):
        charged = int(comm_bytes.value(src=src, dst=dst))
        if charged != total:
            mismatches.append(
                f"{src}->{dst}: transcript {total} bytes != channel {charged} bytes"
            )
    if mismatches:
        raise AuditError(f"{prefix}byte accounting diverged: " + "; ".join(mismatches))
