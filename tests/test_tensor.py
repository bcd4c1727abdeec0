"""SharedTensor: local linear algebra and scale discipline."""

import numpy as np
import pytest

from repro.core.tensor import SharedTensor
from repro.util.errors import ProtocolError, ShapeError


def shared(ctx, arr, **kw):
    return SharedTensor.from_plain(ctx, np.asarray(arr, dtype=np.float64), **kw)


class TestConstruction:
    def test_from_plain_decodes_back(self, ctx, rng):
        x = rng.normal(size=(6, 4))
        t = shared(ctx, x)
        np.testing.assert_allclose(t.decode(), x, atol=ctx.encoder.resolution)

    def test_sharing_charges_offline_time(self, ctx, rng):
        before = ctx.offline_clock.now()
        shared(ctx, rng.normal(size=(64, 64)))
        assert ctx.offline_clock.now() > before

    def test_indicator_kind(self, ctx):
        t = SharedTensor.from_plain(ctx, np.array([[0, 1], [1, 0]]), kind="indicator")
        assert t.kind == "indicator"
        np.testing.assert_array_equal(t.decode(), [[0, 1], [1, 0]])

    def test_share_shape_mismatch_rejected(self, ctx):
        with pytest.raises(ShapeError):
            SharedTensor(
                ctx=ctx,
                shares=(np.zeros((2, 2), dtype=np.uint64), np.zeros((3, 2), dtype=np.uint64)),
            )

    def test_wrong_dtype_rejected(self, ctx):
        with pytest.raises(ProtocolError):
            SharedTensor(ctx=ctx, shares=(np.zeros((2, 2)), np.zeros((2, 2))))


class TestLocalOps:
    def test_add_sub_neg(self, ctx, rng):
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        ta, tb = shared(ctx, a), shared(ctx, b)
        np.testing.assert_allclose((ta + tb).decode(), a + b, atol=2e-4)
        np.testing.assert_allclose((ta - tb).decode(), a - b, atol=2e-4)
        np.testing.assert_allclose((-ta).decode(), -a, atol=2e-4)

    def test_add_public(self, ctx, rng):
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(
            shared(ctx, a).add_public(0.5).decode(), a + 0.5, atol=2e-4
        )

    def test_mul_public_int(self, ctx, rng):
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(
            shared(ctx, a).mul_public_int(3).decode(), 3 * a, atol=5e-4
        )

    def test_mul_public_real(self, ctx, rng):
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(
            shared(ctx, a).mul_public(0.37).decode(), 0.37 * a, atol=1e-3
        )

    def test_mul_public_on_indicator_rejected(self, ctx):
        t = SharedTensor.from_plain(ctx, np.eye(2), kind="indicator")
        with pytest.raises(ProtocolError):
            t.mul_public(0.5)

    def test_kind_mismatch_in_add(self, ctx):
        fixed = shared(ctx, np.eye(2))
        ind = SharedTensor.from_plain(ctx, np.eye(2), kind="indicator")
        with pytest.raises(ProtocolError):
            fixed + ind

    def test_to_fixed_lifts_indicator(self, ctx):
        ind = SharedTensor.from_plain(ctx, np.array([[0, 1]]), kind="indicator")
        lifted = ind.to_fixed()
        assert lifted.kind == "fixed"
        np.testing.assert_allclose(lifted.decode(), [[0.0, 1.0]])

    def test_add_charges_online_time(self, ctx, rng):
        a = shared(ctx, rng.normal(size=(32, 32)))
        before = ctx.online_clock.now()
        _ = a + a
        assert ctx.online_clock.now() > before


class TestShapeOps:
    def test_transpose(self, ctx, rng):
        a = rng.normal(size=(3, 5))
        np.testing.assert_allclose(shared(ctx, a).T.decode(), a.T, atol=2e-4)

    def test_transpose_of_a_stack_swaps_the_last_two_axes(self, ctx, rng):
        a = rng.normal(size=(3, 4, 5))
        t = shared(ctx, a)
        assert t.T.shape == (3, 5, 4) and t.T.uid == t.uid
        np.testing.assert_allclose(t.T.decode(), np.swapaxes(a, 1, 2), atol=2e-4)
        with pytest.raises(ShapeError, match="at least 2 axes"):
            shared(ctx, rng.normal(size=(4,))).T

    def test_reshape(self, ctx, rng):
        a = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            shared(ctx, a).reshape(2, 12).decode(), a.reshape(2, 12), atol=2e-4
        )

    def test_row_slice(self, ctx, rng):
        a = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            shared(ctx, a).row_slice(2, 6).decode(), a[2:6], atol=2e-4
        )

    def test_sum_rows(self, ctx, rng):
        a = rng.normal(size=(7, 4))
        np.testing.assert_allclose(
            shared(ctx, a).sum_rows().decode(), a.sum(axis=0, keepdims=True), atol=2e-3
        )

    def test_broadcast_rows(self, ctx, rng):
        b = rng.normal(size=(1, 5))
        out = shared(ctx, b).broadcast_rows(4)
        np.testing.assert_allclose(out.decode(), np.tile(b, (4, 1)), atol=2e-4)

    def test_broadcast_requires_single_row(self, ctx, rng):
        with pytest.raises(ShapeError):
            shared(ctx, rng.normal(size=(2, 5))).broadcast_rows(4)
