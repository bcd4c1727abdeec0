"""Average pooling on shares (linear, non-interactive)."""

import numpy as np
import pytest
from conftest import make_ctx, pool_then_dense

from repro.core.layers import SecureAvgPool2D
from repro.core.ops import secure_elementwise_mul
from repro.core.tensor import SharedTensor
from repro.util.errors import ShapeError


def shared(ctx, arr):
    return SharedTensor.from_plain(ctx, np.asarray(arr, dtype=np.float64))


def plain_avgpool(x, shape, k):
    n = x.shape[0]
    h, w, c = shape
    return x.reshape(n, h // k, k, w // k, k, c).mean(axis=(2, 4)).reshape(n, -1)


class TestForward:
    def test_matches_plain_average(self, ctx, rng):
        pool = SecureAvgPool2D(ctx, (8, 8, 2), window=2)
        x = rng.normal(size=(3, 128))
        out = pool.forward(shared(ctx, x))
        np.testing.assert_allclose(out.decode(), plain_avgpool(x, (8, 8, 2), 2), atol=1e-3)

    def test_window_4(self, ctx, rng):
        pool = SecureAvgPool2D(ctx, (8, 8, 1), window=4)
        x = rng.normal(size=(2, 64))
        out = pool.forward(shared(ctx, x))
        np.testing.assert_allclose(out.decode(), plain_avgpool(x, (8, 8, 1), 4), atol=1e-3)
        assert pool.out_shape == (2, 2, 1)

    def test_consumes_no_triplets(self, ctx, rng):
        pool = SecureAvgPool2D(ctx, (4, 4, 1), window=2)
        before = ctx.triplets_issued
        pool.forward(shared(ctx, rng.normal(size=(2, 16))))
        assert ctx.triplets_issued == before  # fully local

    def test_indivisible_window_rejected(self, ctx):
        with pytest.raises(ShapeError):
            SecureAvgPool2D(ctx, (7, 8, 1), window=2)

    def test_wrong_input_size(self, ctx, rng):
        pool = SecureAvgPool2D(ctx, (4, 4, 1), window=2)
        with pytest.raises(ShapeError):
            pool.forward(shared(ctx, rng.normal(size=(2, 20))))


class TestBackward:
    def test_gradient_spreads_uniformly(self, ctx, rng):
        pool = SecureAvgPool2D(ctx, (4, 4, 1), window=2)
        x = rng.normal(size=(2, 16))
        pool.forward(shared(ctx, x))
        delta = rng.normal(size=(2, 4))
        dx = pool.backward(shared(ctx, delta)).decode()
        # each input position receives delta / k^2 of its window
        expected = np.repeat(np.repeat(delta.reshape(2, 2, 2, 1), 2, axis=1), 2, axis=2)
        expected = (expected / 4.0).reshape(2, -1)
        # account for the layout: build via broadcast like the layer does
        d = (delta / 4.0).reshape(2, 2, 1, 2, 1, 1)
        expected = np.broadcast_to(d, (2, 2, 2, 2, 2, 1)).reshape(2, -1)
        np.testing.assert_allclose(dx, expected, atol=2e-3)

    def test_adjoint_property(self, ctx, rng):
        """<pool(x), y> == <x, pool_backward(y)> up to the 1/k^2 scaling."""
        pool = SecureAvgPool2D(ctx, (4, 4, 1), window=2)
        x = rng.normal(size=(1, 16))
        y = rng.normal(size=(1, 4))
        fwd = pool.forward(shared(ctx, x)).decode()
        bwd = pool.backward(shared(ctx, y)).decode()
        assert float((fwd * y).sum()) == pytest.approx(float((x * bwd).sum()), abs=1e-2)


@pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
class TestPoolingIsOnTheClock:
    """Each party's pooling pass runs after its share of the input and
    before its consumer, in ``pool_then_dense`` as anywhere."""

    @staticmethod
    def _computed(ctx, shape, label):
        """A value the online clock produces (its shares have tasks)."""
        x = SharedTensor.from_plain(ctx, np.random.default_rng(0).normal(size=shape), label=label)
        return secure_elementwise_mul(x, x, label=label)

    def test_the_pass_follows_the_input_and_the_dense_follows_the_pass(self, backend):
        ctx = make_ctx(backend=backend, trace=True)
        pool, d0 = pool_then_dense(ctx).layers[:2]
        x = self._computed(ctx, (4, 16), "sq")
        start = len(ctx.online_clock.trace)
        pooled = pool.forward(x)
        d0.forward(pooled)
        placed = ctx.online_clock.trace[start:]
        passes = [t for t in placed if t.label == "pool:pool"]
        assert len(passes) == ctx.n_parties
        for i, task in enumerate(passes):
            assert task.start >= x.tasks[i].finish
            assert pooled.tasks[i].finish >= task.finish
        if backend == "beaver2pc":  # E_i reads the pooled value; the weight's F_i need not wait
            for i, task in enumerate(passes):
                (sub,) = [t for t in placed if t.label == f"d0/fwd:E{i}"]
                assert sub.start >= task.finish
        else:
            assert min(t.start for t in placed if t.label.startswith("d0/")) >= min(
                t.finish for t in passes
            )

    def test_the_backward_copy_follows_the_delta_and_is_returned(self, backend):
        ctx = make_ctx(backend=backend, trace=True)
        pool = pool_then_dense(ctx).layers[0]
        pool.forward(self._computed(ctx, (4, 16), "sq"))
        delta = self._computed(ctx, (4, 4), "delta")
        start = len(ctx.online_clock.trace)
        grad = pool.backward(delta)
        copies = [t for t in ctx.online_clock.trace[start:] if t.label == "pool:upsample"]
        assert len(copies) == ctx.n_parties
        for i, task in enumerate(copies):
            assert task.start >= delta.tasks[i].finish
            assert grad.tasks[i].finish >= task.finish
