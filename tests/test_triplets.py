"""Beaver triplet generation (offline phase)."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.fixedpoint.ring import ring_matmul, ring_mul
from repro.mpc.shares import reconstruct
from repro.util.errors import ProtocolError, ShapeError


@pytest.fixture
def dealer():
    return SecureContext(FrameworkConfig.parsecureml())


class TestMatrixTriplet:
    def test_z_equals_u_matmul_v(self, dealer):
        t = dealer.gen_matrix_triplet((4, 6), (6, 3))
        u = reconstruct(t.u.share0, t.u.share1)
        v = reconstruct(t.v.share0, t.v.share1)
        z = reconstruct(t.z.share0, t.z.share1)
        assert np.array_equal(z, ring_matmul(u, v))

    def test_shapes(self, dealer):
        t = dealer.gen_matrix_triplet((4, 6), (6, 3))
        assert t.u.shape == (4, 6)
        assert t.v.shape == (6, 3)
        assert t.z.shape == (4, 3)

    def test_incompatible_shapes_raise(self, dealer):
        with pytest.raises(ShapeError):
            dealer.gen_matrix_triplet((4, 6), (5, 3))

    def test_non_2d_raises(self, dealer):
        with pytest.raises(ShapeError):
            dealer.gen_matrix_triplet((4,), (4, 3))

    @pytest.mark.parametrize(
        "shapes", [((2, 3, 4), (3, 5)), ((2, 3), (4, 5)), ((3, 2, 4), (2, 4, 5))]
    )
    def test_bad_shapes_raise_before_any_offline_cost(self, dealer, shapes):
        mark = dealer.mark()
        with pytest.raises(ShapeError, match="incompatible for matmul"):
            dealer.gen_matrix_triplet(*shapes)
        assert dealer.since(mark).offline_s == 0

    def test_fresh_randomness_per_triplet(self, dealer):
        t1 = dealer.gen_matrix_triplet((3, 3), (3, 3))
        t2 = dealer.gen_matrix_triplet((3, 3), (3, 3))
        assert not np.array_equal(
            reconstruct(t1.u.share0, t1.u.share1), reconstruct(t2.u.share0, t2.u.share1)
        )

    def test_counter_increments(self, dealer):
        dealer.gen_matrix_triplet((2, 2), (2, 2))
        dealer.gen_elementwise_triplet((4, 4))
        assert dealer.triplets_issued == 2


class TestElementwiseTriplet:
    def test_z_equals_u_hadamard_v(self, dealer):
        t = dealer.gen_elementwise_triplet((5, 7))
        u = reconstruct(t.u.share0, t.u.share1)
        v = reconstruct(t.v.share0, t.v.share1)
        z = reconstruct(t.z.share0, t.z.share1)
        assert np.array_equal(z, ring_mul(u, v))

    def test_nd_shapes_supported(self, dealer):
        t = dealer.gen_elementwise_triplet((2, 3, 4))
        assert t.u.shape == (2, 3, 4)


class TestSingleUse:
    def test_share_consumption_enforced(self, dealer):
        t = dealer.gen_matrix_triplet((2, 2), (2, 2))
        share = t.share_for(0)
        share.mark_consumed()
        with pytest.raises(ProtocolError):
            share.mark_consumed()

    def test_each_party_gets_own_share_object(self, dealer):
        t = dealer.gen_matrix_triplet((2, 2), (2, 2))
        s0, s1 = t.share_for(0), t.share_for(1)
        assert s0.party_id == 0
        assert s1.party_id == 1
        s0.mark_consumed()  # does not affect s1
        s1.mark_consumed()


# ------------------------------------------------------ the consumption guard


class TestDoubleConsumeGuard:
    def test_second_consume_in_one_batch_names_the_stream(self):
        ctx = SecureContext(FrameworkConfig.parsecureml())
        ctx.begin_batch()
        triplet = ctx.get_matrix_triplet("mlp0/fwd", (4, 4), (4, 4))
        share = triplet.share_for(0)
        share.mark_consumed()
        again = ctx.get_matrix_triplet("mlp0/fwd", (4, 4), (4, 4))
        with pytest.raises(ProtocolError, match="mlp0/fwd"):
            again.share_for(0).mark_consumed()

    def test_new_batch_resets_the_guard(self):
        ctx = SecureContext(FrameworkConfig.parsecureml())
        ctx.begin_batch()
        ctx.get_matrix_triplet("op", (4, 4), (4, 4)).share_for(0).mark_consumed()
        ctx.begin_batch()
        ctx.get_matrix_triplet("op", (4, 4), (4, 4)).share_for(0).mark_consumed()

    def test_no_epoch_keeps_legacy_fresh_shares(self):
        ctx = SecureContext(FrameworkConfig.parsecureml())  # no begin_batch() call
        trip = ctx.get_matrix_triplet("op", (4, 4), (4, 4))
        trip.share_for(0).mark_consumed()
        trip2 = ctx.get_matrix_triplet("op", (4, 4), (4, 4))
        trip2.share_for(0).mark_consumed()  # must not raise


#: (kind, label) streams, each at a full and a ragged (short) batch shape.
STREAMS = {
    ("matrix", "mlp0/fwd"): (((4, 3), (3, 2)), ((2, 3), (3, 2))),
    ("matrix", "mlp0/dW"): (((3, 4), (4, 2)), ((3, 2), (2, 2))),
    ("elementwise", "act/bwd"): (((4, 3),), ((2, 3),)),
}


class ConsumeGuardMachine(RuleBasedStateMachine):
    """The double-consume guard belongs to the label cache: within one
    ``begin_batch`` step a stream's cached triplet hands out the same
    :class:`TripletShare` per party, so a second consume raises a
    ``ProtocolError`` naming the stream; a new step (or a re-dealt
    triplet at a ragged shape) starts clean, and single-use triplets
    (``fresh_triplets``) never trip it."""

    @initialize(fresh=st.booleans())
    def deploy(self, fresh):
        self.ctx = SecureContext(FrameworkConfig.parsecureml(fresh_triplets=fresh))
        self.fresh = fresh
        self.begin_batch()

    @rule()
    def begin_batch(self):
        self.ctx.begin_batch()
        self.held = {}  # label -> triplet fetched in this step
        self.consumed = set()  # (triplet uid, party) consumed in this step

    @rule(stream=st.sampled_from(sorted(STREAMS)), ragged=st.booleans())
    def fetch(self, stream, ragged):
        kind, label = stream
        shapes = STREAMS[stream][ragged]
        if kind == "matrix":
            self.held[label] = self.ctx.get_matrix_triplet(label, *shapes)
        else:
            self.held[label] = self.ctx.get_elementwise_triplet(label, *shapes)

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 15), party=st.sampled_from([0, 1]))
    def consume(self, pick, party):
        label = sorted(self.held)[pick % len(self.held)]
        triplet = self.held[label]
        key = (triplet.uid, party)
        if key in self.consumed and not self.fresh:
            with pytest.raises(ProtocolError, match=label):
                triplet.share_for(party).mark_consumed()
        else:
            # the first consume in a step and every single-use triplet pass
            triplet.share_for(party).mark_consumed()
        self.consumed.add(key)


ConsumeGuardMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
TestConsumeGuardMachine = ConsumeGuardMachine.TestCase
