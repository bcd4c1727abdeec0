"""Protocol transcripts: record every message a run puts on the wire.

The correctness story of the reproduction rests on claims about *wire
behaviour* — the online phase exchanges exactly the masked differences
of Eqs. 4-5, a refactor changes no protocol bytes, a single server's
traffic is independent of the secrets.  Those claims are only testable
if the wire is observable, so this module gives every run a flight
recorder:

* :class:`TranscriptRecorder` taps the transport surfaces (the
  :class:`~repro.comm.transport.TransportHub` frame path and the
  lockstep ``record_wire`` hooks in :mod:`repro.core`) and appends one
  :class:`TranscriptRecord` per message — source, destination, tag,
  wire byte size, a content digest, and the simulated clock time.
* :class:`Transcript` is the immutable result: JSON dump/load for CI
  artifacts, and :meth:`Transcript.diff` / :meth:`assert_identical`
  as the replay oracle ("re-run the session; the transcript must be
  bit-identical").

Digests are BLAKE2b over a canonical byte encoding (dtype + shape +
raw buffer for arrays, deterministic pickle otherwise), so two records
match iff the payloads were bit-identical.  The raw *content bytes*
(the array buffers a passive observer would see, one entry per message
part) are kept in memory only when ``capture_payloads`` is on — that is
what the wire-view auditor in :mod:`repro.audit.wire` feeds to the
chi-square uniformity test; the JSON form stores digests and sizes only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.comm.wire import (  # noqa: F401  (re-exported: historical home)
    canonical_bytes,
    content_bytes,
    content_parts,
    iter_arrays,
    payload_digest,
)
from repro.util.errors import AuditError, TranscriptMismatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.transport import TransportHub

#: Sequence fields that must match record-for-record for two transcripts
#: to be considered the same protocol run.  The clock column is compared
#: too: all clocks in the simulation are deterministic, so a timing
#: divergence is as much a regression as a byte divergence.
IDENTITY_FIELDS = ("src", "dst", "tag", "nbytes", "digest", "clock_s")


# The canonical encoding (canonical_bytes / content_bytes / iter_arrays /
# payload_digest) moved to repro.comm.wire when the frame codec unified
# wire encoding and transcript hashing; the names above are re-exported
# here, their historical home, and the byte format is unchanged —
# committed reference transcripts pin it.


@dataclass(frozen=True)
class TranscriptRecord:
    """One message as a passive network observer would log it.

    ``parts`` holds the raw content bytes of each protocol message part
    (one entry per array: the ``E`` and the ``F`` of a packed round
    frame) when the recorder captured them (wire-audit input); it is
    never serialized and never takes part in transcript identity —
    ``digest`` already pins the content.  Neither are ``masks`` — per
    part of a masked-difference frame, the ``(mask uid, value uid)`` it
    opened — and ``step``, the online step it was sent in: process-local
    identities the wire auditor's mask model is stated in.
    """

    seq: int
    src: str
    dst: str
    tag: str
    nbytes: int
    digest: str
    clock_s: float
    parts: tuple[bytes, ...] | None = field(default=None, repr=False, compare=False)
    masks: tuple[tuple[int, int], ...] | None = field(default=None, repr=False, compare=False)
    step: int | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq, "src": self.src, "dst": self.dst, "tag": self.tag,
            "nbytes": self.nbytes, "digest": self.digest, "clock_s": self.clock_s,
            "captured": self.parts is not None,
        }

    @classmethod
    def from_json(cls, row: dict[str, Any]) -> "TranscriptRecord":
        return cls(
            seq=int(row["seq"]), src=row["src"], dst=row["dst"], tag=row["tag"],
            nbytes=int(row["nbytes"]), digest=row["digest"],
            clock_s=float(row["clock_s"]),
        )


@dataclass(frozen=True)
class TranscriptDivergence:
    """Where two transcripts first disagree (for error messages)."""

    index: int
    field: str
    ours: Any
    theirs: Any

    def describe(self) -> str:
        return (
            f"record {self.index}: {self.field} differs "
            f"({self.ours!r} != {self.theirs!r})"
        )


class Transcript:
    """An ordered, immutable log of every recorded message."""

    def __init__(self, records: Iterable[TranscriptRecord], meta: dict[str, Any] | None = None):
        self.records: tuple[TranscriptRecord, ...] = tuple(records)
        self.meta: dict[str, Any] = dict(meta or {})

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TranscriptRecord]:
        return iter(self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    def links(self) -> list[tuple[str, str]]:
        """Distinct ``(src, dst)`` pairs in first-seen order."""
        seen: dict[tuple[str, str], None] = {}
        for r in self.records:
            seen.setdefault((r.src, r.dst), None)
        return list(seen)

    def records_for(
        self,
        *,
        src: str | None = None,
        dst: str | None = None,
        tag_prefix: str | None = None,
    ) -> list[TranscriptRecord]:
        return [
            r for r in self.records
            if (src is None or r.src == src)
            and (dst is None or r.dst == dst)
            and (tag_prefix is None or r.tag.startswith(tag_prefix))
        ]

    def diff(self, other: "Transcript") -> TranscriptDivergence | None:
        """First divergence between two transcripts, or None if identical.

        Identity is record-for-record equality of :data:`IDENTITY_FIELDS`;
        captured payload bytes are excluded (the digest pins them).
        """
        for i, (a, b) in enumerate(zip(self.records, other.records)):
            for name in IDENTITY_FIELDS:
                va, vb = getattr(a, name), getattr(b, name)
                if va != vb:
                    return TranscriptDivergence(index=i, field=name, ours=va, theirs=vb)
        if len(self.records) != len(other.records):
            short = min(len(self.records), len(other.records))
            return TranscriptDivergence(
                index=short, field="length",
                ours=len(self.records), theirs=len(other.records),
            )
        return None

    def assert_identical(self, other: "Transcript", *, context: str = "") -> None:
        """The replay oracle: raise unless ``other`` is bit-identical."""
        div = self.diff(other)
        if div is not None:
            prefix = f"{context}: " if context else ""
            raise TranscriptMismatch(
                f"{prefix}transcripts diverge at {div.describe()} "
                f"(recorded {len(self)} messages, replayed {len(other)})"
            )

    def to_json(self) -> dict[str, Any]:
        return {
            "version": 1,
            "meta": self.meta,
            "messages": len(self.records),
            "total_bytes": self.total_bytes,
            "records": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Transcript":
        if doc.get("version") != 1:
            raise AuditError(f"unsupported transcript version: {doc.get('version')!r}")
        return cls(
            (TranscriptRecord.from_json(row) for row in doc["records"]),
            meta=doc.get("meta"),
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Transcript":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


class TranscriptRecorder:
    """Append-only message tap shared by all transport surfaces.

    Two kinds of traffic reach it:

    * **frames** via :meth:`tap_hub` — everything the actor runtime and
      the reliable transport push through a ``TransportHub`` (including
      retransmissions and duplicates, which is the point: the recorder
      sees the wire, not the protocol's idea of it);
    * **lockstep wire charges** via :meth:`record` — the masked-opening
      and share-upload hooks in :mod:`repro.core`, which never touch a
      hub because their cost is charged directly on the channels.

    The overhead budget is one digest per message; payload capture (for
    the chi-square wire audit) is opt-out via ``capture_payloads``.
    """

    def __init__(
        self,
        *,
        capture_payloads: bool = True,
        telemetry=None,
        meta: dict[str, Any] | None = None,
    ):
        self.capture_payloads = capture_payloads
        self.meta: dict[str, Any] = dict(meta or {})
        self._records: list[TranscriptRecord] = []
        self._msg_counter = None
        self._byte_counter = None
        if telemetry is not None:
            reg = telemetry.registry
            self._msg_counter = reg.counter(
                "audit.messages_recorded", "messages appended to the transcript"
            )
            self._byte_counter = reg.counter(
                "audit.bytes_recorded", "wire bytes appended to the transcript"
            )

    def __len__(self) -> int:
        return len(self._records)

    def record(
        self,
        src: str,
        dst: str,
        tag: str,
        payload: Any = None,
        *,
        nbytes: int | None = None,
        clock_s: float = 0.0,
        content: bytes | None = None,
        masks: tuple | None = None,
        step: int | None = None,
    ) -> TranscriptRecord:
        """Append one message.

        ``payload`` is hashed (and, when capturing, flattened to raw
        bytes for the wire audit); pass ``payload=None`` with an explicit
        ``nbytes`` for size-only rounds such as the GMW comparison bits,
        whose per-bit content is not materialized by the simulation.
        ``content`` overrides the captured bytes when the observable wire
        form differs from the hashed logical payload.  ``masks`` / ``step``
        ride along for the wire auditor (see :class:`TranscriptRecord`).
        """
        if payload is None and nbytes is None:
            raise AuditError(f"record {src}->{dst} [{tag}]: need payload or nbytes")
        digest = payload_digest(payload) if payload is not None else ""
        captured: tuple[bytes, ...] | None = None
        if self.capture_payloads:
            if content is not None:
                captured = (content,)
            elif payload is not None:
                captured = content_parts(payload)
        if nbytes is None:
            nbytes = sum(len(p) for p in captured) if captured is not None else 0
        rec = TranscriptRecord(
            seq=len(self._records), src=src, dst=dst, tag=tag,
            nbytes=int(nbytes), digest=digest, clock_s=float(clock_s),
            parts=captured, masks=masks, step=step,
        )
        self._records.append(rec)
        if self._msg_counter is not None:
            self._msg_counter.inc(1, link=f"{src}->{dst}")
            self._byte_counter.inc(int(nbytes), link=f"{src}->{dst}")
        return rec

    def tap_hub(self, hub: "TransportHub", *, clock=None) -> Callable:
        """Attach to a hub; every ``send`` is recorded as a frame.

        Returns the tap callable so callers can detach it later with
        :meth:`TransportHub.remove_tap`.
        """

        def tap(src: str, dst: str, tag: str, payload: Any) -> None:
            body = content_bytes(payload)
            self.record(
                src, dst, f"frame/{tag}", payload,
                nbytes=len(body),
                clock_s=clock.now() if clock is not None else 0.0,
                content=body,
            )

        hub.add_tap(tap)
        return tap

    def transcript(self) -> Transcript:
        return Transcript(self._records, meta=self.meta)

    def clear(self) -> None:
        self._records.clear()
