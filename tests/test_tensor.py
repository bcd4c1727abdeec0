"""SharedTensor: local linear algebra and scale discipline."""

import numpy as np
import pytest

from repro.core.tensor import SharedTensor
from repro.util.errors import EncodingError, ProtocolError, ShapeError


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

    def test_string_array_is_an_encoding_error_naming_the_label(self, ctx):
        with pytest.raises(EncodingError, match="client/x"):
            SharedTensor.from_plain(ctx, np.array([["0.5", "1"]]), label="client/x")

    def test_complex_array_is_refused_not_cut_to_its_real_part(self, ctx):
        with pytest.raises(EncodingError, match="complex"):
            SharedTensor.from_plain(ctx, np.array([[0.5 + 2j, 1.0]]), label="z")


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

    def test_mul_public_int_accepts_the_whole_int64_range(self, ctx):
        ones = shared(ctx, np.ones((2, 2)))
        np.testing.assert_allclose(ones.mul_public_int(-(2**20)).decode(), -(2.0**20))
        for v in (-(2**63), 2**63 - 1):
            ones.mul_public_int(v)  # in range: wraps as the ring does, no error

    @pytest.mark.parametrize("v", [2**63, 2**64 + 3, -(2**63) - 1])
    def test_mul_public_int_outside_int64_raises(self, ctx, v):
        """``2**64 + 3`` once wrapped to 3 and decoded to 3.0."""
        with pytest.raises(EncodingError, match=rf"mul_public_int.*{v}"):
            shared(ctx, np.ones((2, 2))).mul_public_int(v)

    def test_mul_public_real(self, ctx, rng):
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(
            shared(ctx, a).mul_public(0.37).decode(), 0.37 * a, atol=1e-3
        )

    def test_mul_public_on_indicator_rejected(self, ctx):
        t = SharedTensor.from_plain(ctx, np.eye(2), kind="indicator")
        with pytest.raises(ProtocolError):
            t.mul_public(0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_mul_public_by_a_non_finite_value_is_an_encoding_error(self, ctx, value):
        with pytest.raises(EncodingError, match=repr(value)):
            shared(ctx, np.eye(2)).mul_public(value)

    def test_mul_public_by_an_array_is_a_shape_error(self, ctx):
        with pytest.raises(ShapeError, match=r"mul_public.*\(3, 3\).*\(2, 3\)"):
            shared(ctx, np.ones((2, 3))).mul_public(np.ones((3, 3)))

    def test_add_public_of_a_value_that_does_not_broadcast_is_a_shape_error(self, ctx):
        with pytest.raises(ShapeError, match=r"add_public.*\(3, 3\).*\(2, 3\)"):
            shared(ctx, np.ones((2, 3))).add_public(np.ones((3, 3)))

    def test_add_public_broadcasts_a_row(self, ctx):
        got = shared(ctx, np.ones((2, 3))).add_public(np.array([0.5, 1.0, 1.5])).decode()
        np.testing.assert_allclose(got, [[1.5, 2.0, 2.5]] * 2, atol=2e-4)

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

    def test_reshape_to_another_size_is_a_shape_error(self, ctx):
        """It used to raise NumPy's bare ``ValueError``."""
        with pytest.raises(ShapeError, match=r"reshape: \(2, 3\) -> \(4, 2\)"):
            shared(ctx, np.ones((2, 3))).reshape(4, 2)

    def test_row_slice(self, ctx, rng):
        a = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            shared(ctx, a).row_slice(2, 6).decode(), a[2:6], atol=2e-4
        )

    @pytest.mark.parametrize(
        "rows, lo, hi, pad_to, match",
        [
            *(
                pytest.param(2, lo, hi, None, "row range of 2 rows", id=f"{lo}-{hi}")
                for lo, hi in [(-1, 1), (2, 1), (5, 9), (0, 3)]
            ),
            pytest.param(4, 0, 4, 2, "row_slice: pad_to=2 is fewer than the 4 rows", id="pad_to=2"),
            pytest.param(4, 0, 4, -1, "row_slice: pad_to=-1 is fewer than the 4", id="pad_to=-1"),
            pytest.param(4, 0, 4, 2.5, r"row_slice: .*integers.*2\.5", id="pad_to=2.5"),
            pytest.param(4, 0.5, 4, None, r"row_slice: .*integers.*0\.5", id="lo=0.5"),
        ],
    )
    def test_row_slice_outside_the_rows_is_a_shape_error(self, ctx, rows, lo, hi, pad_to, match):
        """``row_slice(5, 9)`` of two rows used to return an empty tensor;
        a ``pad_to`` short of the slice, or a bound that is no integer,
        used to return the bare slice or raise a bare ``TypeError``."""
        with pytest.raises(ShapeError, match=match):
            shared(ctx, np.ones((rows, 4))).row_slice(lo, hi, pad_to=pad_to)

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

    def test_broadcast_to_a_negative_row_count_raises(self, ctx, rng):
        """Once a bare NumPy ``ValueError``."""
        with pytest.raises(ShapeError, match=r"broadcast_rows.*n_rows.*-1"):
            shared(ctx, rng.normal(size=(1, 5))).broadcast_rows(-1)
