"""Transcript recorder, replay oracle, and wire-view auditor.

The tentpole correctness claims: (1) a recorded session replays to a
bit-identical transcript; (2) every legitimately recorded link stays
under the chi-square ceiling; (3) a deliberately leaky path — plaintext
serialized onto a link — is flagged by the auditor.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_ctx
from repro.audit import (
    CHI2_CEILING,
    Transcript,
    TranscriptRecorder,
    audit_context,
    audit_transcript,
    canonical_bytes,
    chi2_uniform_bytes,
    payload_digest,
)
from repro.core.inference import secure_predict
from repro.core.models import SecureLogisticRegression, SecureMLP
from repro.core.training import SecureTrainer
from repro.util.errors import AuditError, TranscriptMismatch


def _mlp_workload(n=32, d=12, n_out=3, seed=5):
    rng = np.random.default_rng(seed)
    x = 0.5 * rng.standard_normal((n, d))
    y = np.zeros((n, n_out))
    y[np.arange(n), rng.integers(0, n_out, size=n)] = 1.0
    return x, y


def _recorded_training_run(**overrides):
    ctx = make_ctx(**overrides)
    recorder = ctx.attach_recorder()
    model = SecureMLP(ctx, 12, hidden=(8,), n_out=3)
    x, y = _mlp_workload()
    SecureTrainer(ctx, model, monitor_loss=False).train(x, y, batch_size=16)
    return ctx, recorder.transcript()


class TestCanonicalBytes:
    def test_array_digest_pins_dtype_and_shape(self, rng):
        a = rng.integers(0, 2**63, size=(4, 4), dtype=np.uint64)
        assert payload_digest(a) == payload_digest(a.copy())
        assert payload_digest(a) != payload_digest(a.reshape(2, 8))
        assert payload_digest(a) != payload_digest(a.astype(np.int64))

    def test_single_bit_flip_changes_digest(self, rng):
        a = rng.integers(0, 2**63, size=16, dtype=np.uint64)
        b = a.copy()
        b[7] ^= np.uint64(1)
        assert payload_digest(a) != payload_digest(b)

    def test_non_array_payloads_hash_deterministically(self):
        assert canonical_bytes({"k": 1}) == canonical_bytes({"k": 1})
        assert canonical_bytes(b"abc").startswith(b"bytes|")


class TestRecorder:
    def test_records_and_counts(self, rng):
        rec = TranscriptRecorder()
        a = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        rec.record("server0", "server1", "E/0", a, nbytes=a.nbytes, clock_s=1.5)
        rec.record("server0", "server1", "ge:rounds", nbytes=100)
        t = rec.transcript()
        assert len(t) == 2
        assert t.records[0].digest and t.records[0].parts is not None
        assert t.records[1].digest == "" and t.records[1].nbytes == 100
        assert t.total_bytes == a.nbytes + 100

    def test_record_needs_payload_or_nbytes(self):
        rec = TranscriptRecorder()
        with pytest.raises(AuditError, match="need payload or nbytes"):
            rec.record("a", "b", "t")

    def test_telemetry_counters(self):
        ctx = make_ctx()
        rec = ctx.attach_recorder()
        rec.record("server0", "server1", "x", np.zeros(4, dtype=np.uint64))
        snap = ctx.telemetry.snapshot()
        assert snap.counter("audit.messages_recorded") == 1
        assert snap.counter("audit.bytes_recorded") == 32

    def test_capture_payloads_off_keeps_digests(self, rng):
        rec = TranscriptRecorder(capture_payloads=False)
        a = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        rec.record("server0", "server1", "E/0", a, nbytes=a.nbytes)
        r = rec.transcript().records[0]
        assert r.parts is None and r.digest


class TestTranscriptJson:
    def test_roundtrip_preserves_identity(self, tmp_path):
        _ctx, t = _recorded_training_run()
        path = tmp_path / "session.json"
        t.dump(path)
        loaded = Transcript.load(path)
        # identity fields survive the JSON roundtrip exactly (clock
        # floats included — json round-trips float64 via repr)
        t.assert_identical(loaded)
        assert loaded.meta == t.meta
        assert loaded.total_bytes == t.total_bytes

    def test_rejects_unknown_version(self):
        with pytest.raises(AuditError, match="version"):
            Transcript.from_json({"version": 99, "records": []})


class TestReplayOracle:
    def test_training_replay_is_bit_identical(self):
        _ctx1, first = _recorded_training_run()
        _ctx2, second = _recorded_training_run()
        first.assert_identical(second)
        assert len(first) > 20  # a real session, not an empty pass

    def test_divergent_config_is_caught(self):
        # frac_bits changes every encoded byte -> first masked exchange
        # (or upload) must diverge
        _c1, first = _recorded_training_run()
        _c2, other = _recorded_training_run(frac_bits=14)
        with pytest.raises(TranscriptMismatch, match="diverge"):
            first.assert_identical(other)

    def test_length_divergence_reported(self):
        _c, t = _recorded_training_run()
        truncated = Transcript(t.records[:-1], meta=t.meta)
        div = t.diff(truncated)
        assert div.field == "length"
        with pytest.raises(TranscriptMismatch):
            t.assert_identical(truncated)

    def test_single_message_divergence_localized(self, rng):
        rec1, rec2 = TranscriptRecorder(), TranscriptRecorder()
        a = rng.integers(0, 2**63, size=8, dtype=np.uint64)
        b = a.copy()
        b[0] ^= np.uint64(1)
        for r in (rec1, rec2):
            r.record("s0", "s1", "same", a, nbytes=64, clock_s=0.0)
        rec1.record("s0", "s1", "x", a, nbytes=64, clock_s=1.0)
        rec2.record("s0", "s1", "x", b, nbytes=64, clock_s=1.0)
        div = rec1.transcript().diff(rec2.transcript())
        assert div.index == 1 and div.field == "digest"


class TestWireAudit:
    def test_training_session_all_links_clean(self):
        ctx, t = _recorded_training_run()
        report = audit_transcript(t, telemetry=ctx.telemetry)
        # every inter-party direction was seen and judged
        assert {(a.src, a.dst) for a in report.audits} >= {
            ("server0", "server1"), ("server1", "server0"),
            ("client", "server0"), ("client", "server1"),
        }
        assert report.passed, report.summary()
        assert report.max_chi2 <= CHI2_CEILING
        snap = ctx.telemetry.snapshot()
        assert snap.counter("audit.links_audited") >= 4
        assert snap.counter("audit.links_failed") == 0

    def test_party_filter_restricts_to_one_view(self):
        _ctx, t = _recorded_training_run()
        report = audit_transcript(t, party="server0")
        assert report.audits and all(a.dst == "server0" for a in report.audits)

    def test_leaky_debug_path_is_caught(self):
        """A test-only debug path that serializes plaintext onto a link
        must trip the auditor on exactly that link."""
        ctx, _t = _recorded_training_run()
        rec = ctx.recorder
        # the "debug path": ship the (structured) plaintext activations
        leak = np.linspace(0.0, 1.0, 1024)  # float64: wildly non-uniform bytes
        rec.record("server1", "server0", "debug/activations", leak,
                   nbytes=leak.nbytes, clock_s=0.0)
        report = audit_transcript(rec.transcript())
        assert not report.passed
        assert [a.link for a in report.failures] == ["server1->server0"]
        with pytest.raises(AuditError, match="wire audit failed"):
            report.assert_clean()

    def test_audit_context_audits_the_attached_recorder(self):
        ctx, t = _recorded_training_run()
        report = audit_context(ctx)
        assert [(a.link, a.chi2) for a in report.audits] == [
            (a.link, a.chi2) for a in audit_transcript(t).audits
        ]
        # counted into the context's own telemetry
        assert ctx.telemetry.snapshot().counter("audit.links_audited") == len(report.audits)
        with pytest.raises(AuditError, match="no attached TranscriptRecorder"):
            audit_context(make_ctx())

    def test_summary_names_every_link_and_the_failures(self):
        ctx, _t = _recorded_training_run()
        rec = ctx.recorder
        leak = np.linspace(0.0, 1.0, 1024)
        rec.record("server1", "server0", "debug/activations", leak,
                   nbytes=leak.nbytes, clock_s=0.0)  # fmt: skip
        report = audit_transcript(rec.transcript())
        head, *lines = report.summary().splitlines()
        judged = sum(not a.skipped for a in report.audits)
        assert head == (
            f"wire audit: {len(report.audits)} links, {judged} judged, 1 failed "
            f"(ceiling {CHI2_CEILING:.0f})"
        )
        assert lines == [f"  {a.describe()}" for a in report.audits]
        assert [line for line in lines if line.endswith("-> LEAK")] == [
            "  " + report.failures[0].describe()
        ]

    def test_small_links_skip_not_judged(self, rng):
        rec = TranscriptRecorder()
        rec.record("a", "b", "tiny", rng.integers(0, 2**63, 4, dtype=np.uint64))
        report = audit_transcript(rec.transcript())
        (audit,) = report.audits
        assert audit.skipped and audit.passed and audit.chi2 is None

    def test_duplicate_messages_counted_once(self, rng):
        # a static operand re-sends the same masked bytes every batch;
        # the repeat must not inflate the statistic
        rec = TranscriptRecorder()
        a = rng.integers(0, 2**64, size=512, dtype=np.uint64)
        for _ in range(12):
            rec.record("s0", "s1", "F/0", a, nbytes=a.nbytes)
        report = audit_transcript(rec.transcript())
        (audit,) = report.audits
        assert audit.content_bytes == a.nbytes  # deduped
        assert audit.messages == 12
        assert audit.passed

    def test_repeated_part_of_packed_frames_counted_once(self, rng):
        # two packed EF frames share a byte-identical static F next to
        # fresh E parts: the frames differ, so only per-part
        # de-duplication keeps F from being histogrammed twice
        e1, f, e2 = (rng.integers(0, 2**64, size=512, dtype=np.uint64) for _ in range(3))
        rec = TranscriptRecorder()
        rec.record("s0", "s1", "op/EF/0", (e1, f))
        rec.record("s0", "s1", "op/EF/0", (e2, f))
        (audit,) = audit_transcript(rec.transcript()).audits
        assert audit.content_bytes == 3 * f.nbytes
        assert audit.chi2 == chi2_uniform_bytes(np.concatenate([e1, f, e2]))

    def test_chi2_helper_matches_security_suite_semantics(self, rng):
        uniform = rng.integers(0, 2**64, size=4096, dtype=np.uint64)
        assert chi2_uniform_bytes(uniform) < CHI2_CEILING
        assert chi2_uniform_bytes(uniform.tobytes()) == pytest.approx(
            chi2_uniform_bytes(uniform)
        )
        structured = np.zeros(4096, dtype=np.uint64)
        assert chi2_uniform_bytes(structured) > CHI2_CEILING
        with pytest.raises(AuditError):
            chi2_uniform_bytes(b"")


class TestContextRecording:
    def test_recorder_off_by_default_and_harmless(self):
        ctx = make_ctx()
        assert ctx.recorder is None
        model = SecureMLP(ctx, 12, hidden=(8,), n_out=3)
        x, _y = _mlp_workload()
        report = secure_predict(ctx, model, x, batch_size=16)
        assert report.predictions.shape == (32, 3)

    def test_recording_does_not_change_numerics(self):
        x, _y = _mlp_workload()
        preds = []
        for attach in (False, True):
            ctx = make_ctx()
            if attach:
                ctx.attach_recorder()
            model = SecureMLP(ctx, 12, hidden=(8,), n_out=3)
            preds.append(secure_predict(ctx, model, x, batch_size=16).predictions)
        np.testing.assert_array_equal(preds[0], preds[1])

    def test_exchange_records_masked_matrix_not_csr(self):
        # the audited content must be the reconstructed masked matrix:
        # its byte size can exceed the (compressed) wire bytes.  Logistic
        # inference is the stream that compresses: its activation
        # indicators mostly repeat from batch to batch, so ``act:mul``'s
        # F differs from the previous batch's in few elements.
        ctx = make_ctx()
        recorder = ctx.attach_recorder()
        model = SecureLogisticRegression(ctx, 12, n_out=8)
        x = 0.5 * np.random.default_rng(5).standard_normal((48, 12))
        secure_predict(ctx, model, x, batch_size=16)
        t = recorder.transcript()
        exchanges = [
            r for r in t.records_for(src="server0", dst="server1")
            if "/EF/" in r.tag
        ]
        assert exchanges
        assert any(sum(map(len, r.parts)) > r.nbytes for r in exchanges), (
            "expected at least one delta-compressed exchange "
            "(parts = full matrices, nbytes = wire bytes)"
        )

    def test_comparison_rounds_recorded_size_only(self):
        ctx, t = _recorded_training_run()
        rounds = [r for r in t.records if r.tag.endswith(":rounds")]
        assert rounds
        assert all(r.parts is None and r.nbytes > 0 for r in rounds)
