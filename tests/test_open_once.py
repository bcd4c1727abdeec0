"""One mask per value: a tensor that feeds several secure products in an
online step is opened once, and those products' triplets are dealt on
that one mask.

The rule lives in ``SecureContext`` (the mask table, ``_deal``,
``_masks_fit``) and ``protocols/beaver2pc.py`` (``_open_operands``).
Under test: what crosses the wire, that no value moves, what the dealer
charges, and the two invariants — a mask never opens two different
values in one step, and nothing a step opened outlives the step unless
its value is static.
"""

import hashlib

import numpy as np
import pytest
from conftest import openings

from repro.audit import ConformanceCase, run_conformance_case
from repro.audit.conformance import TRAIN_TOL
from repro.audit.transcript import IDENTITY_FIELDS, TranscriptRecorder
from repro.audit.wire import audit_transcript, mask_violations
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.layers import SecureDense
from repro.core.ops import secure_elementwise_mul, secure_matmul
from repro.core.tensor import SharedTensor


def _ctx(**kw):
    ctx = SecureContext(FrameworkConfig.parsecureml(**kw))
    return ctx, ctx.attach_recorder()


def _shared(ctx, shape, seed):
    values = 0.5 * np.random.default_rng(seed).standard_normal(shape)
    return SharedTensor.from_plain(ctx, values)


def _parts(recorder, since=0):
    """{op label: part count of its server0 -> server1 round frame}."""
    return {
        r.tag.removesuffix("/EF/0"): len(r.parts)
        for r in recorder.transcript().records[since:]
        if r.tag.endswith("/EF/0")
    }


def _hits(ctx, **labels):
    return ctx.telemetry.registry.counter("mpc.mask_reuse.hits", "").value(**labels)


def _dense_step(ctx, layers, seed, *, rows=16):
    """One training step of dense -> dense, without the update: returns
    (decoded inputs, secure grad_w1, dX1, grad_w0)."""
    d0, d1 = layers
    x = _shared(ctx, (rows, d0.in_features), seed)
    delta = _shared(ctx, (rows, d1.out_features), seed + 100)
    ctx.begin_batch()
    h = d0.forward(x)
    d1.forward(h)
    dh = d1.backward(delta)
    d0.backward(dh, input_grad=False)
    return (x, h, delta), (d1._grad_w, dh, d0._grad_w)


def _dense_layers(ctx):
    return SecureDense(ctx, 12, 8, name="d0"), SecureDense(ctx, 8, 4, name="d1")


# --------------------------------------------------------------- what is opened


class TestDenseTrainStep:
    def test_x_is_sent_once_and_a_deeper_dx_sends_nothing(self):
        ctx, recorder = _ctx()
        layers = _dense_layers(ctx)
        _dense_step(ctx, layers, 1)
        # the dealing step: a link's second stream re-opens once (H's mask
        # only now has two streams), and the static W1 is already held;
        # delta is opened once, by dX, issued first
        assert _parts(recorder) == {
            "d0/fwd": 2, "d1/fwd": 2, "d1/dX": 1, "d1/dW": 1, "d0/dW": 2,
        }
        since = len(recorder)
        (x, h, delta), (gw1, dh, gw0) = _dense_step(ctx, layers, 2)
        # from then on: X and H once (forward), delta once (as dX's E), no
        # dW frame at all — H^T and delta are both already public
        assert _parts(recorder, since) == {"d0/fwd": 1, "d1/fwd": 1, "d1/dX": 1, "d0/dW": 1}
        # the parent's algebra
        w1 = layers[1].weight.decode()
        n = x.shape[0]
        np.testing.assert_allclose(gw1.decode(), h.decode().T @ delta.decode() / n, atol=TRAIN_TOL)
        np.testing.assert_allclose(dh.decode(), delta.decode() @ w1.T, atol=TRAIN_TOL)
        np.testing.assert_allclose(
            gw0.decode(), x.decode().T @ dh.decode() / n, atol=TRAIN_TOL
        )

    def test_shares_equal_a_run_that_opens_everything_again(self, monkeypatch):
        """Given the same triplets, serving an opening from the table and
        opening it again give every server the same share."""

        def run(forget: bool):
            ctx, recorder = _ctx()
            layers = _dense_layers(ctx)
            _dense_step(ctx, layers, 1)  # deals every stream, links included
            if forget:
                get = SecureContext.get_matrix_triplet

                def forgetful(self, *args, **kw):
                    for mask in openings(self):
                        self.rows.drop(mask)
                    return get(self, *args, **kw)

                monkeypatch.setattr(SecureContext, "get_matrix_triplet", forgetful)
            since = len(recorder)
            _, grads = _dense_step(ctx, layers, 2)
            monkeypatch.undo()
            return grads, _parts(recorder, since)

        served, sent = run(forget=False)
        reopened, resent = run(forget=True)
        assert resent == {"d0/fwd": 2, "d1/fwd": 2, "d1/dW": 2, "d1/dX": 2, "d0/dW": 2}
        assert sum(sent.values()) == 4
        for a, b in zip(served, reopened):
            for party in (0, 1):
                np.testing.assert_array_equal(a.shares[party], b.shares[party])


class TestViews:
    def test_the_transpose_of_a_square_value_is_served_transposed(self):
        ctx, recorder = _ctx()
        w = _shared(ctx, (8, 8), 7).mark_static()
        for seed in (1, 2):
            x, d = _shared(ctx, (8, 8), seed), _shared(ctx, (8, 8), seed + 50)
            assert x.T.uid == x.uid and x.T.transposed and not x.T.T.transposed
            ctx.begin_batch()
            since = len(recorder)
            secure_matmul(x, w, label="fwd")
            got = secure_matmul(x.T, d, label="dW")
        assert _parts(recorder, since) == {"fwd": 1, "dW": 1}  # E_X, then delta alone
        np.testing.assert_allclose(got.decode(), x.decode().T @ d.decode(), atol=TRAIN_TOL)
        assert np.abs(got.decode() - x.decode() @ d.decode()).max() > 0.1

    def test_a_reshape_of_a_transposed_view_is_a_new_value(self):
        ctx, _ = _ctx()
        x = _shared(ctx, (4, 6), 1)
        assert x.reshape(2, 12).uid == x.uid
        assert x.T.reshape(2, 12).uid != x.uid
        assert not x.T.reshape(2, 12).transposed

    def test_a_stack_and_its_flat_view_share_one_opening(self):
        ctx, recorder = _ctx()
        b, s, d = 4, 3, 5
        w = _shared(ctx, (d, 2), 9).mark_static()
        for seed in (1, 2):
            q = _shared(ctx, (b * s, d), seed).reshape(b, s, d)
            k = _shared(ctx, (b * s, d), seed + 50).reshape(b, s, d)
            ctx.begin_batch()
            since = len(recorder)
            scores = secure_matmul(q, k.T, label="qk")
            flat = secure_matmul(q.reshape(b * s, d), w, label="proj")
        assert _parts(recorder, since) == {"qk": 2}  # proj: Q and W both held
        qd, kd = q.decode(), k.decode()
        np.testing.assert_allclose(scores.decode(), qd @ kd.transpose(0, 2, 1), atol=TRAIN_TOL)
        np.testing.assert_allclose(
            flat.decode(), qd.reshape(b * s, d) @ w.decode(), atol=TRAIN_TOL
        )

    def test_a_square_opens_one_half_round(self):
        ctx, recorder = _ctx()
        p, q = _shared(ctx, (6, 5), 1), _shared(ctx, (6, 5), 2)
        ctx.begin_batch()
        squared = secure_elementwise_mul(p, p, label="sq")
        secure_elementwise_mul(p.add_public(0.0), q, label="pq")
        frames = {r.tag: r for r in recorder.transcript() if "/EF/" in r.tag}
        assert [len(frames[f"sq/EF/{i}"].parts) for i in (0, 1)] == [1, 1]
        assert len(frames["sq/EF/0"].parts[0]) == 8 * 30
        assert 8 * 30 < frames["sq/EF/0"].nbytes < frames["pq/EF/0"].nbytes - 8 * 30
        assert ctx._elementwise_triplets["sq"].masks[0].mask is (
            ctx._elementwise_triplets["sq"].masks[1].mask
        )
        np.testing.assert_allclose(squared.decode(), p.decode() ** 2, atol=TRAIN_TOL)


# ------------------------------------------------------------- what is charged


class TestDealerCharges:
    def _first_step(self, *, delimited: bool):
        ctx, recorder = _ctx()
        x, w = _shared(ctx, (16, 12), 1), _shared(ctx, (12, 8), 2).mark_static()
        d = _shared(ctx, (16, 8), 3)
        mark = ctx.mark()
        if delimited:
            ctx.begin_batch()
        secure_matmul(x, w, label="fwd")
        secure_matmul(x.T, d, label="dW")
        secure_matmul(d, w.T, label="dX")
        uploads = [
            r.nbytes for r in recorder.transcript().records_for(src="client", dst="server0")
            if r.tag == "triplet:upload"
        ]
        return ctx, uploads, ctx.since(mark).offline_s

    def test_a_linked_triplet_uploads_only_what_is_new(self):
        ctx, uploads, linked_s = self._first_step(delimited=True)
        u, v, z = 8 * 16 * 12, 8 * 12 * 8, 8 * 16 * 8
        dw_v, dw_z = 8 * 16 * 8, 8 * 12 * 8
        dx_z = 8 * 16 * 12
        assert uploads == [u + v + z, dw_v + dw_z, dx_z]  # dX: both masks exist
        assert ctx.triplets_issued == 3
        # without step boundaries every stream deals its own masks
        own, own_uploads, own_s = self._first_step(delimited=False)
        assert own_uploads == [u + v + z, 8 * 12 * 16 + dw_v + dw_z, 8 * 16 * 8 + 8 * 8 * 12 + dx_z]
        assert linked_s < own_s
        assert all(row.lifetime == "static" for row in openings(own).values())
        assert _hits(own, scope="step") == 0


# ------------------------------------------------------------------ invariants


class TestInvariants:
    def _linked(self, **kw):
        ctx, recorder = _ctx(**kw)
        w = _shared(ctx, (12, 8), 5).mark_static()
        for seed in (1, 2):
            x, d = _shared(ctx, (16, 12), seed), _shared(ctx, (16, 8), seed + 50)
            ctx.begin_batch()
            secure_matmul(x, w, label="fwd")
            secure_matmul(x.T, d, label="dW")
        return ctx, recorder, w

    def test_a_second_value_under_a_shared_mask_is_redealt_not_opened(self):
        ctx, recorder, w = self._linked()
        shared = ctx._matrix_triplets["fwd"].masks[0].mask
        assert ctx._matrix_triplets["dW"].masks[0].mask is shared and shared.shared
        x, forged = _shared(ctx, (16, 12), 3), _shared(ctx, (16, 12), 4)
        d = _shared(ctx, (16, 8), 53)
        ctx.begin_batch()
        secure_matmul(x, w, label="fwd")
        issued = ctx.triplets_issued
        got = secure_matmul(forged.T, d, label="dW")  # not the value fwd opened
        assert ctx.triplets_issued == issued + 1
        assert ctx._matrix_triplets["dW"].masks[0].mask is not shared
        np.testing.assert_allclose(got.decode(), forged.decode().T @ d.decode(), atol=TRAIN_TOL)
        report = audit_transcript(recorder.transcript())
        assert report.mask_violations == [] and report.passed

    def test_the_auditor_fails_a_mask_that_opened_two_values_in_one_step(self):
        rng = np.random.default_rng(0)
        recorder = TranscriptRecorder()

        def send(step, mask, value):
            part = rng.integers(0, 2**64, size=(32, 16), dtype=np.uint64)
            recorder.record("server0", "server1", "x/EF/0", (part,), masks=((mask, value),), step=step)

        send(0, 1, 10)
        send(1, 1, 11)  # another value, another step: the stable-mask premise
        assert audit_transcript(recorder.transcript()).passed
        send(1, 1, 12)
        report = audit_transcript(recorder.transcript())
        assert not report.passed and len(report.mask_violations) == 1
        assert "mask 1" in report.mask_violations[0] and "step 1" in report.mask_violations[0]
        assert mask_violations(recorder.transcript()) == report.mask_violations

    def test_nothing_a_step_opened_outlives_it_unless_static(self):
        ctx, _, w = self._linked()
        assert any(
            row.lifetime == "step" and row.held is not None for row in openings(ctx).values()
        )
        ctx.begin_batch()
        rows = list(openings(ctx).values())
        assert [row.value for row in rows] == [w.uid]  # the weight's F survives
        assert rows[0].lifetime == "static" and rows[0].held is not None and rows[0].task == ()

    def test_a_restart_empties_the_table_and_keeps_the_links(self):
        ctx, recorder, w = self._linked()
        ctx.reset_mask_reuse()
        assert not openings(ctx)
        x, d = _shared(ctx, (16, 12), 3), _shared(ctx, (16, 8), 53)
        ctx.begin_batch()
        since = len(recorder)
        issued = ctx.triplets_issued
        secure_matmul(x, w, label="fwd")
        secure_matmul(x.T, d, label="dW")
        assert ctx.triplets_issued == issued
        assert _parts(recorder, since) == {"fwd": 2, "dW": 1}  # F again, E_X still once

    def test_a_ragged_batch_redeals_both_streams_of_a_link(self):
        ctx, recorder, w = self._linked()
        issued = ctx.triplets_issued
        x, d = _shared(ctx, (10, 12), 3), _shared(ctx, (10, 8), 53)
        ctx.begin_batch()
        since = len(recorder)
        secure_matmul(x, w, label="fwd")
        got = secure_matmul(x.T, d, label="dW")
        assert ctx.triplets_issued == issued + 2
        fwd, dw = ctx._matrix_triplets["fwd"], ctx._matrix_triplets["dW"]
        assert fwd.shape_a == (10, 12) and dw.masks[0].mask is fwd.masks[0].mask
        # the link was known, so the new root kept its opening at once
        assert _parts(recorder, since) == {"fwd": 2, "dW": 1}
        np.testing.assert_allclose(got.decode(), x.decode().T @ d.decode(), atol=TRAIN_TOL)

    def test_alternating_batch_shapes_do_not_grow_the_table(self):
        """Every re-deal draws the weight a new mask; the row of the old
        one (a weight-sized matrix and both its shares) must go with it."""
        ctx, _, w = self._linked()
        sizes = []
        for seed, rows in enumerate((10, 16, 10, 16, 10), start=3):
            x, d = _shared(ctx, (rows, 12), seed), _shared(ctx, (rows, 8), seed + 50)
            ctx.begin_batch()
            secure_matmul(x, w, label="fwd")
            secure_matmul(x.T, d, label="dW")
            ctx.begin_batch()
            sizes.append(len(openings(ctx)))
        assert sizes == [1] * 5
        (row,) = openings(ctx).values()
        assert row.value == w.uid and row.mask is ctx._matrix_triplets["fwd"].masks[1].mask

    def test_without_step_boundaries_every_stream_deals_its_own_masks(self):
        ctx, recorder = _ctx()
        x, w = _shared(ctx, (16, 12), 1), _shared(ctx, (12, 8), 2).mark_static()
        for seed in (3, 4):
            d = _shared(ctx, (16, 8), seed)
            since = len(recorder)
            secure_matmul(x, w, label="fwd")
            secure_matmul(x.T, d, label="dW")
        assert _parts(recorder, since) == {"fwd": 1, "dW": 2}  # only the static F is held
        assert ctx._matrix_triplets["dW"].masks[0].mask is not (
            ctx._matrix_triplets["fwd"].masks[0].mask
        )
        assert ctx._shared_sides == set()


class TestFreshTriplets:
    def test_shares_within_a_step_and_keeps_nothing_across_steps(self):
        ctx, recorder = _ctx(fresh_triplets=True)
        w = _shared(ctx, (12, 8), 5).mark_static()
        masks = []
        for seed in (1, 2, 3):
            x, d = _shared(ctx, (16, 12), seed), _shared(ctx, (16, 8), seed + 50)
            ctx.begin_batch()
            assert not openings(ctx)
            since = len(recorder)
            secure_matmul(x, w, label="fwd")
            got = secure_matmul(x.T, d, label="dW")
            masks.append({row.mask.uid for row in openings(ctx).values()})
            # step 1 learns the link (dW re-opens once); from step 2 on the
            # per-step dealer deals fwd's U as shared and dW sends delta alone
            assert _parts(recorder, since) == {"fwd": 2, "dW": 2 if seed == 1 else 1}
        assert masks[0].isdisjoint(masks[1]) and masks[1].isdisjoint(masks[2])
        assert _hits(ctx, scope="static") == 0 and _hits(ctx, scope="step") == 2
        np.testing.assert_allclose(got.decode(), x.decode().T @ d.decode(), atol=TRAIN_TOL)


# ------------------------------------------------- what must not move at all


def _transcript_digest(**case):
    result = run_conformance_case(ConformanceCase(**case))
    assert result.agreed and result.wire.passed
    digest = hashlib.blake2b(digest_size=16)
    for record in result.transcript:
        digest.update(repr(tuple(getattr(record, f) for f in IDENTITY_FIELDS)).encode())
    return len(result.transcript), digest.hexdigest()


class TestUntouchedPaths:
    """Digests over every record's identity fields (bytes, content hash,
    clock).  Bytes and hashes are those of the commit before masks
    belonged to values; the clock times were re-pinned, each earlier or
    equal, when the clock began backfilling idle gaps.  The rep3 digest
    was re-pinned once more when comparison became a borrow tree: its
    ``:rounds`` and ``compare:upload`` bytes shrank, every clock time
    moved earlier or stayed, and the indicator's B2A shares (hence the
    payload hashes downstream of a comparison) are drawn anew.  It was
    re-pinned again when each backward began issuing its input gradient
    before its weight gradient: the same 119 records, tags, sizes and
    hashes, in the new issue order, ``dW``'s records later and the last
    one earlier."""

    def test_rep3_has_no_masks_and_does_not_move(self):
        assert _transcript_digest(
            model="MLP", axis="baseline", train=True, backend="rep3"
        ) == (119, "495001b7a3364e735b96bc2e0023be48")
