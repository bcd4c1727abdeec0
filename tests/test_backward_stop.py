"""The backward walk stops at the first trainable layer.

One rule, no switch: a layer's input gradient is computed only if some
earlier layer has parameters.  These tests pin what that rule may and
may not change — parameter updates stay bit-identical, the skipped
``dX`` streams leave no trace on the wire or in telemetry, and every
``dX`` that *is* still needed is the same Beaver product as before.
"""

import numpy as np
import pytest
from conftest import make_ctx, pool_then_dense

from repro.audit.conformance import CONFORMANCE_MODELS, ConformanceCase, _tiny_workload
from repro.core.attention import SecureAttentionBlock
from repro.core.context import SecureContext
from repro.core.layers import (
    SecureActivation,
    SecureAvgPool2D,
    SecureConv2D,
    SecureDense,
    SecureLayer,
)
from repro.core.models import SecureModel
from repro.core.recsys import SecureEmbedding
from repro.core.resnet import SecureResidualBlock
from repro.core.tensor import SharedTensor
from repro.fixedpoint.truncation import truncate_share
from repro.mpc.protocol import secure_matmul_plain
from repro.util.errors import ProtocolError

BACKENDS = ("beaver2pc", "rep3")

#: layer type -> (build(ctx), input width, output width)
LAYERS = {
    "dense": (lambda ctx: SecureDense(ctx, 6, 4, name="l"), 6, 4),
    "conv": (lambda ctx: SecureConv2D(ctx, (6, 6, 1), 2, kernel=3, name="l"), 36, 32),
    "attention": (lambda ctx: SecureAttentionBlock(ctx, 3, 4, name="l"), 12, 4),
    "embedding": (lambda ctx: SecureEmbedding(ctx, 8, 4, name="l"), 8, 4),
    "resblock": (lambda ctx: SecureResidualBlock(ctx, (7, 7, 1), name="l"), 49, 9),
}


def _shared(ctx, arr, label):
    return SharedTensor.from_plain(ctx, np.asarray(arr, dtype=np.float64), label=label)


def _one_step(kind, backend, *, input_grad):
    build, in_width, out_width = LAYERS[kind]
    ctx = make_ctx(seed=3, backend=backend)
    layer = build(ctx)
    rng = np.random.default_rng(7)
    x = 0.5 * rng.standard_normal((4, in_width))
    delta = 0.5 * rng.standard_normal((4, out_width))
    layer.forward(_shared(ctx, x, "x"), training=True)
    dx = layer.backward(_shared(ctx, delta, "delta"), input_grad=input_grad)
    layer.apply_gradients(0.125)
    return layer, dx


class TestParameterUpdatesUnaffected:
    """dW/db are issued before dX, so they consume the same triplets
    whether or not dX follows: the update is the same, share for share."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", sorted(LAYERS))
    def test_weights_bit_identical_with_and_without_input_grad(self, kind, backend):
        full, dx_full = _one_step(kind, backend, input_grad=True)
        lean, dx_lean = _one_step(kind, backend, input_grad=False)
        assert dx_full is not None and dx_lean is None
        assert len(full.parameters()) == len(lean.parameters()) > 0
        for p_full, p_lean in zip(full.parameters(), lean.parameters()):
            for s_full, s_lean in zip(p_full.shares, p_lean.shares):
                np.testing.assert_array_equal(s_full, s_lean)

    @pytest.mark.parametrize("layer_cls", [SecureActivation, SecureAvgPool2D])
    def test_parameter_free_layers_do_nothing(self, ctx, layer_cls):
        if layer_cls is SecureActivation:
            layer = SecureActivation(ctx, "relu", name="a")
        else:
            layer = SecureAvgPool2D(ctx, (4, 4, 1), 2, name="p")
        before = ctx.triplets_issued
        # not even a forward is needed: there is no gradient to produce
        assert layer.backward(_shared(ctx, np.zeros((2, 4)), "d"), input_grad=False) is None
        assert ctx.triplets_issued == before


# first trainable layer's dX stream prefix, and a deeper dX that must survive
FIRST_AND_DEEPER = {
    "MLP": ("mlp0/dX", "mlp1/dX"),
    "CNN": ("conv0/dX", "fc1/dX"),
    "RNN": ("rnn/dX", "rnnout/dX"),
    "linear": ("linreg/dX", None),
    "logistic": ("logreg/dX", None),
    "SVM": ("svm/dX", None),
    "attention": ("attn/dX", "attnout/dX"),
    "recsys": ("emb/dX", "rechead/dX"),
}


def _train_one_batch(model, ctx, x, y, batch):
    ctx.begin_batch()
    model.train_batch(_shared(ctx, x[:batch], "x"), _shared(ctx, y[:batch], "y"), 0.125)


def _op_labels(ctx):
    return [span.name[len("op."):] for span in ctx.telemetry.span_log.finished("op.")]


class TestSkippedStreamsLeaveNoTrace:
    def test_table_covers_the_registry(self):
        assert set(FIRST_AND_DEEPER) == set(CONFORMANCE_MODELS)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model_name", sorted(FIRST_AND_DEEPER))
    def test_no_record_and_no_op_label_of_first_layer_dx(self, model_name, backend):
        case = ConformanceCase(model=model_name, axis="baseline", train=True, backend=backend)
        x, y, build_secure, _ = _tiny_workload(case)
        ctx = SecureContext.create(case.config())
        recorder = ctx.attach_recorder(capture_payloads=False)
        model = build_secure(ctx)
        _train_one_batch(model, ctx, x, y, case.batch_size)

        first, deeper = FIRST_AND_DEEPER[model_name]
        tags = [r.tag for r in recorder.transcript()]
        labels = _op_labels(ctx)
        assert tags and labels
        assert not [t for t in tags if t.startswith(first)]
        assert not [lab for lab in labels if lab.startswith(first)]
        if deeper is not None:  # the rule drops one layer's dX, not all of them
            # by op label: once its operands are already open (delta by dW,
            # W^T by the forward pass) a dX round sends no frame to record
            assert [lab for lab in labels if lab.startswith(deeper)]

    def test_parameter_free_first_layer_moves_the_stop(self, ctx, rng, monkeypatch):
        """pool -> dense -> relu -> dense: the dense after the pool is the
        first trainable layer, so its dX is skipped and the pool's
        backward is never visited."""
        model = pool_then_dense(ctx)
        visited = []
        monkeypatch.setattr(model.layers[0], "backward", lambda *a, **k: visited.append(1))
        recorder = ctx.attach_recorder(capture_payloads=False)
        w0 = model.layers[1].weight.decode().copy()
        _train_one_batch(model, ctx, rng.normal(size=(8, 16)), rng.normal(size=(8, 3)), 8)

        tags = [r.tag for r in recorder.transcript()]
        assert not visited
        assert not [t for t in tags if t.startswith("d0/dX")]
        assert [t for t in tags if t.startswith("d0/dW")]
        labels = _op_labels(ctx)
        assert "d0/dX" not in labels and "d1/dX" in labels
        assert not np.array_equal(model.layers[1].weight.decode(), w0)  # d0 still trains


class TestNeededInputGradientsUnchanged:
    def test_non_first_layer_dx_is_the_same_beaver_product(self, rng):
        """Two dense layers: the upper layer's dX, as the model's walk
        computes it, equals Eqs. 4-8 run by hand on the same shares and
        the same triplet, then SecureML's local truncation."""
        ctx = make_ctx(seed=5)
        model = SecureModel(ctx)
        lower = SecureDense(ctx, 6, 5, name="d0")
        upper = SecureDense(ctx, 5, 3, name="d1")
        model.layers = [lower, upper]
        seen = {}
        upper_backward = upper.backward

        def spy(delta, *, input_grad=True):
            seen["delta"], seen["input_grad"] = delta, input_grad
            seen["dx"] = upper_backward(delta, input_grad=input_grad)
            return seen["dx"]

        upper.backward = spy
        x = _shared(ctx, rng.normal(size=(4, 6)), "x")
        y = _shared(ctx, rng.normal(size=(4, 3)), "y")
        pred = model.forward(x, training=True)
        w_t = upper.weight.T
        model.backward(model.loss_delta(pred, y))

        assert seen["input_grad"] is True
        delta = seen["delta"]
        triplet = ctx.get_matrix_triplet("d1/dX", delta.shape, w_t.shape)
        c0, c1 = secure_matmul_plain(delta.shares, w_t.shares, triplet, label="by-hand")
        frac = ctx.encoder.frac_bits
        np.testing.assert_array_equal(seen["dx"].shares[0], truncate_share(c0, frac, 0))
        np.testing.assert_array_equal(seen["dx"].shares[1], truncate_share(c1, frac, 1))
        # and the lower layer, first trainable, produced no dX triplet at all
        assert lower._grad_w is not None
        assert not [lab for lab in _op_labels(ctx) if lab.startswith("d0/dX")]

    def test_missing_input_gradient_is_a_typed_error(self, ctx, rng):
        """A layer that returns None although a layer below it trains is
        reported by name, not as an attribute error on None."""

        class Deaf(SecureLayer):
            name = "deaf"

            def forward(self, x, *, training=True):
                return x

            def backward(self, delta, *, input_grad=True):
                return None

        model = SecureModel(ctx)
        model.layers = [SecureDense(ctx, 4, 3, name="d0"), Deaf()]
        pred = model.forward(_shared(ctx, rng.normal(size=(2, 4)), "x"), training=True)
        with pytest.raises(ProtocolError, match="deaf.*no input gradient"):
            model.backward(pred)
