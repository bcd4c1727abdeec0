"""Protocol backend layer: registry, threading, rep3, replay pinning.

The acceptance contract for the pluggable-substrate refactor:

* the registry resolves both shipped backends and rejects unknown names;
* ``backend=`` threads from the api facade through config into the
  context (party count, dealer wiring, serving);
* the default path is *unchanged*: a beaver2pc run replays
  bit-identically against the committed reference transcript
  (``scripts/gen_reference_transcript.py --check`` names a stale pin);
* rep3 computes correct products/comparisons, passes the wire auditor,
  and raises backend-named errors when dealer material is requested.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.audit.conformance import ConformanceCase, run_conformance_case
from repro.audit.transcript import Transcript
from repro.audit.wire import audit_transcript
from repro.protocols import (
    Beaver2PCBackend,
    Rep3Backend,
    available_backends,
    get_backend,
)
from repro.protocols.rep3 import rep3_reconstruct, rep3_share
from repro.util.errors import ConfigError, ProtocolError

REFERENCE_TRANSCRIPT = "tests/data/beaver2pc_mlp_train_transcript.json"


class TestRegistry:
    def test_shipped_backends_registered(self):
        assert available_backends() == ("beaver2pc", "rep3")
        assert isinstance(get_backend("beaver2pc"), Beaver2PCBackend)
        assert isinstance(get_backend("rep3"), Rep3Backend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown protocol backend"):
            get_backend("rep5")

    def test_backend_attributes(self):
        beaver = get_backend("beaver2pc")
        rep3 = get_backend("rep3")
        assert (beaver.n_parties, beaver.needs_dealer) == (2, True)
        assert (rep3.n_parties, rep3.needs_dealer) == (3, False)

    def test_top_level_exports(self):
        assert repro.available_backends is available_backends
        assert repro.get_backend is get_backend


class TestThreading:
    def test_session_default_is_beaver2pc(self):
        ctx = repro.api.session(seed=0)
        assert ctx.backend.name == "beaver2pc"
        assert ctx.n_parties == 2
        assert len(ctx.uplinks) == 2

    def test_session_backend_kwarg(self):
        ctx = repro.api.session(backend="rep3", seed=0)
        assert ctx.backend.name == "rep3"
        assert ctx.n_parties == 3
        assert len(ctx.uplinks) == 3
        assert set(ctx.server_links) == {(0, 1), (0, 2), (1, 2)}

    def test_unknown_backend_fails_at_session(self):
        with pytest.raises(ConfigError, match="unknown protocol backend"):
            repro.api.session(backend="rep5")

    def test_serve_backend_kwarg(self):
        fleet = repro.api.serve(
            lambda ctx: repro.SecureMLP(ctx, 8, hidden=(6,), n_out=2),
            replicas=2, backend="rep3", max_batch=4, seed=0,
        )
        x = np.random.default_rng(0).normal(size=(4, 8))
        fleet.submit("client-a", x)
        fleet.drain()
        report = fleet.report()
        assert set(report.backends.values()) == {"rep3"}
        assert report.served_requests == 1
        assert report.dropped_requests == 0
        for replica in fleet.replicas():
            assert replica.ctx.backend.name == "rep3"


class TestBeaverReplayPinning:
    """The default backend must not have moved a single wire byte."""

    def test_replays_bit_identically_against_reference(self):
        ref = Transcript.load(REFERENCE_TRANSCRIPT)
        result = run_conformance_case(
            ConformanceCase(model="MLP", axis="baseline", train=True),
            audit=True, capture_payloads=True,
        )
        assert result.agreed
        assert ref.diff(result.transcript) is None


class TestRep3Ops:
    @pytest.fixture(scope="class")
    def ctx(self):
        return repro.api.session(backend="rep3", seed=11)

    def test_matmul(self, ctx):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(5, 4))
        x = repro.SharedTensor.from_plain(ctx, a)
        y = repro.SharedTensor.from_plain(ctx, b)
        out = repro.secure_matmul(x, y, label="t_mm")
        assert np.max(np.abs(out.decode() - a @ b)) < 5e-3

    def test_elementwise(self, ctx):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 7)), rng.normal(size=(4, 7))
        out = repro.secure_elementwise_mul(
            repro.SharedTensor.from_plain(ctx, a),
            repro.SharedTensor.from_plain(ctx, b),
            label="t_ew",
        )
        assert np.max(np.abs(out.decode() - a * b)) < 5e-3

    def test_compare_and_activation(self, ctx):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5))
        x = repro.SharedTensor.from_plain(ctx, a)
        ind = repro.secure_compare_const(x, 0.0, label="t_cmp")
        np.testing.assert_array_equal(ind.decode(), (a >= 0).astype(float))
        out, mask = repro.activation(x, kind="relu", label="t_act")
        assert np.max(np.abs(out.decode() - np.maximum(a, 0))) < 5e-3

    def test_mul_public_and_checkpoint(self, ctx, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        x = repro.SharedTensor.from_plain(ctx, a)
        assert np.max(np.abs(x.mul_public(0.5).decode() - 0.5 * a)) < 5e-3

        from repro.core.checkpoint import load_model, save_model

        model = repro.SecureMLP(ctx, 6, hidden=(4,), n_out=2)
        save_model(model, tmp_path)
        other = repro.SecureMLP(
            repro.api.session(backend="rep3", seed=99), 6, hidden=(4,), n_out=2
        )
        load_model(other, tmp_path)
        np.testing.assert_array_equal(
            model.layers[0].weight.decode(), other.layers[0].weight.decode()
        )

    def test_checkpoint_party_count_mismatch(self, ctx, tmp_path):
        from repro.core.checkpoint import load_model, save_model

        model = repro.SecureMLP(ctx, 6, hidden=(4,), n_out=2)
        save_model(model, tmp_path)
        two_party = repro.SecureMLP(repro.api.session(seed=1), 6, hidden=(4,), n_out=2)
        with pytest.raises(ProtocolError, match="share archives"):
            load_model(two_party, tmp_path)

    def test_wire_view_uniform(self):
        ctx = repro.api.session(backend="rep3", seed=21)
        recorder = ctx.attach_recorder(capture_payloads=True)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(24, 16))
        b = rng.normal(size=(16, 12))
        x = repro.SharedTensor.from_plain(ctx, a)
        y = repro.SharedTensor.from_plain(ctx, b)
        repro.secure_matmul(x, y, label="t_wire")
        repro.activation(x, kind="relu", label="t_wire_act")
        report = audit_transcript(recorder.transcript())
        assert report.passed, report.summary()

    def test_share_reconstruct_roundtrip(self):
        rng = np.random.default_rng(7)
        secret = rng.integers(0, 2**64, size=(3, 9), dtype=np.uint64)
        shares = rep3_share(secret, rng)
        assert len(shares) == 3
        np.testing.assert_array_equal(rep3_reconstruct(shares), secret)


class TestBackendNamedErrors:
    def test_dealer_free_backend_refuses_triplets(self):
        ctx = repro.api.session(backend="rep3", seed=0)
        with pytest.raises(ProtocolError, match=r"\[rep3\].*'mm'.*dealer-free"):
            ctx.get_matrix_triplet("mm", (4, 4), (4, 4))
        with pytest.raises(ProtocolError, match=r"\[rep3\]"):
            ctx.get_elementwise_triplet("ew", (4, 4))

    def test_double_consume_names_backend_and_stream(self):
        ctx = repro.api.session(seed=0)
        triplet = ctx.get_matrix_triplet("dbl", (2, 2), (2, 2))
        share = triplet.share_for(0)
        share.mark_consumed()
        with pytest.raises(ProtocolError, match=r"\[beaver2pc\].*'dbl'"):
            share.mark_consumed()

    def test_shape_mismatch_names_backend_and_stream(self):
        ctx = repro.api.session(seed=0)
        rng = np.random.default_rng(8)
        x = repro.SharedTensor.from_plain(ctx, rng.normal(size=(4, 3)))
        y = repro.SharedTensor.from_plain(ctx, rng.normal(size=(5, 2)))
        with pytest.raises(Exception, match=r"\[beaver2pc:bad\]"):
            repro.secure_matmul(x, y, label="bad")


class TestRep3EndToEnd:
    def test_training_matches_plain_within_tolerance(self):
        result = run_conformance_case(
            ConformanceCase(model="logistic", axis="baseline", train=True,
                            backend="rep3")
        )
        assert result.agreed, result.describe()
        assert result.wire is not None and result.wire.passed

    def test_rep3_replay_is_deterministic(self):
        runs = [
            run_conformance_case(
                ConformanceCase(model="MLP", axis="baseline", backend="rep3")
            )
            for _ in range(2)
        ]
        runs[0].transcript.assert_identical(runs[1].transcript)
        np.testing.assert_array_equal(runs[0].predictions, runs[1].predictions)

    def test_fresh_zero_shares_do_not_depend_on_issue_order(self):
        """Under ``fresh_triplets`` each stream's zero shares are its own:
        two independent products issued in either order leave every later
        result bit-identical (pair truncation reads the masked shares)."""

        def run(order):
            ctx = repro.api.session(backend="rep3", seed=5, fresh_triplets=True)
            rng = np.random.default_rng(8)
            a, b, c, d = (
                repro.SharedTensor.from_plain(ctx, rng.normal(size=(6, 6))) for _ in range(4)
            )
            products = {"p": (a, b), "q": (c, d)}
            out = {name: repro.secure_matmul(*products[name], label=name) for name in order}
            later = repro.secure_matmul(out["p"], out["q"], label="later")
            return [out["p"], out["q"], later]

        for got, want in zip(run("pq"), run("qp")):
            for party in range(3):
                np.testing.assert_array_equal(got.shares[party], want.shares[party])
