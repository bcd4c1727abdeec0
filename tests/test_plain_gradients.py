"""Central-difference gradient checks of the plain twins.

The conformance sweep trusts the plain models as its oracle, so their
backward passes are held to finite differences here: every plain layer
kind (parameter and input gradients) and every declared model (the
parameter update its own train step makes).  Gradients are read off
``apply_gradients(1.0)`` as ``before - after``, so the check needs no
access to a layer's private state.

Bounds are the largest relative error ``max|numeric - analytic| /
max|numeric|`` allowed per parameter, stated per layer kind.
"""

import numpy as np
import pytest

from repro.audit.conformance import CONFORMANCE_GEOMETRY, ConformanceCase, conformance_workload
from repro.baselines.plain import (
    PlainActivation,
    PlainAttentionBlock,
    PlainConv2D,
    PlainDense,
    PlainEmbedding,
    PlainTimer,
)
from repro.core.models import MODELS, build_plain

#: dense, conv, activation, RNN and embedding gradients are exact up to
#: float64 rounding in the differences (≤ 3e-9 measured).
EXACT = 1e-7
#: Attention's ``w_qkv`` and input gradient pass through the softmax:
#: the backward applies the exact-softmax Jacobian to the approximate
#: softmax the forward runs (``softmax_reference``, the secure recipe),
#: so they are the exact softmax's gradient, not the one it runs
#: (9e-5 off at the geometry first measured, 2e-5 here).
#: ``w_o`` sits after the softmax and is held to ``EXACT``.
ATTENTION_QKV = 1e-3

EPS = 1e-6


def _numeric(f, arrays):
    """Central differences of scalar ``f()`` w.r.t. each array, in place."""
    out = []
    for a in arrays:
        g = np.zeros_like(a)
        for idx in np.ndindex(a.shape):
            keep = a[idx]
            a[idx] = keep + EPS
            up = f()
            a[idx] = keep - EPS
            down = f()
            a[idx] = keep
            g[idx] = (up - down) / (2 * EPS)
        out.append(g)
    return out


def _step_gradients(obj, step):
    """The gradient ``step()`` applies at lr=1, with the weights restored."""
    params = obj.parameters()
    before = [p.copy() for p in params]
    step()
    grads = [b - p for b, p in zip(before, params)]
    for p, b in zip(params, before):
        p[...] = b
    return grads


def _rel(numeric, analytic):
    return float(np.max(np.abs(numeric - analytic)) / np.max(np.abs(numeric)))


def _layer_errors(layer, x, rng):
    """Relative errors of each parameter gradient and the input gradient
    of ``sum(forward(x) * r)``."""
    timer = PlainTimer("cpu")
    r = rng.standard_normal(layer.forward(x, timer).shape)

    def loss():
        return float(np.sum(layer.forward(x, timer, training=False) * r))

    dx = layer.backward(r, timer)
    # plain layers average parameter gradients over the batch
    grads = _step_gradients(layer, lambda: layer.apply_gradients(1.0))
    numeric = _numeric(loss, layer.parameters())
    errors = [_rel(n / x.shape[0], g) for n, g in zip(numeric, grads)]
    return errors, _rel(_numeric(loss, [x])[0], dx)


def _away_from(x, kinks, margin=0.05):
    """Nudge entries off an activation's kinks (central differences
    straddling one measure a subgradient, not a gradient)."""
    for k in kinks:
        near = np.abs(x - k) < margin
        x[near] = k + np.copysign(margin, x[near] - k)
    return x


LAYERS = {
    "dense": (lambda rng: PlainDense(5, 3, rng), (4, 5), (EXACT, EXACT), EXACT),
    "conv": (lambda rng: PlainConv2D((6, 6, 2), 3, 3, rng, stride=1), (3, 72), (EXACT,), EXACT),
    "conv_strided": (
        lambda rng: PlainConv2D((7, 7, 1), 2, 3, rng, stride=2), (3, 49), (EXACT,), EXACT
    ),
    "relu": (lambda rng: PlainActivation("relu"), (4, 6), (), EXACT),
    "piecewise": (lambda rng: PlainActivation("piecewise"), (4, 6), (), EXACT),
    "embedding": (lambda rng: PlainEmbedding(7, 3, rng), (4, 7), (EXACT,), EXACT),
    "attention": (
        lambda rng: PlainAttentionBlock(3, 4, rng), (4, 12), (ATTENTION_QKV, EXACT), ATTENTION_QKV
    ),
}


@pytest.mark.parametrize("kind", list(LAYERS))
def test_layer_gradients(kind):
    make, shape, param_bounds, input_bound = LAYERS[kind]
    rng = np.random.default_rng(11)
    layer = make(rng)
    x = _away_from(rng.standard_normal(shape), (0.0, -0.5, 0.5))
    errors, input_error = _layer_errors(layer, x, rng)
    assert len(errors) == len(param_bounds)
    for i, (err, bound) in enumerate(zip(errors, param_bounds)):
        assert err <= bound, f"{kind} parameter {i}: {err:.2e} > {bound:.0e}"
    assert input_error <= input_bound, f"{kind} input: {input_error:.2e} > {input_bound:.0e}"


def _model_loss(name, model, x, y, timer):
    """The objective the model's train step descends."""
    pred = model.forward(x, timer, training=False)
    if name == "SVM":
        w = model.dense.w
        hinge = np.maximum(0.0, 1.0 - y * pred).mean()
        return float(hinge + 0.5 * model.reg * np.sum(w * w))
    return float(0.5 * np.sum((pred - y) ** 2) / x.shape[0])


@pytest.mark.parametrize("name", list(MODELS))
def test_model_gradients(name):
    geometry, _width = CONFORMANCE_GEOMETRY[name]
    case = ConformanceCase(model=name, axis="baseline", batch_size=4, n_batches=1)
    x, y, _ = conformance_workload(case)
    model = build_plain(name, seed=3, **geometry)
    timer = PlainTimer("cpu")
    grads = _step_gradients(model, lambda: model.train_batch(x, y, 1.0, timer))
    numeric = _numeric(lambda: _model_loss(name, model, x, y, timer), model.parameters())
    bounds = [EXACT] * len(grads)
    if name == "attention":
        bounds[0] = ATTENTION_QKV  # w_qkv, first of the block's [w_qkv, w_o]
    for i, (n, g, bound) in enumerate(zip(numeric, grads, bounds)):
        err = _rel(n, g)
        assert err <= bound, f"{name} parameter {i}: {err:.2e} > {bound:.0e}"
