"""The paper's six benchmark models and two workloads, each declared once.

Architectures follow Section 7.1:

* **CNN** — one 5x5 convolutional layer + two fully connected layers
  (hidden 64, output 10), ReLU activations;
* **MLP** — three layers (128 -> 64 -> 10), ReLU;
* **RNN** — an Elman recurrent cell over a time series + output layer;
* **Linear regression** — one weight matrix, squared loss;
* **Logistic regression** — linear scores + the Eq. 9 piecewise
  activation standing in for the sigmoid (as SecureML does);
* **SVM** — linear SVM trained with hinge-loss subgradient descent.
  The paper trains SVMs with SMO; SMO's data-dependent working-set
  selection cannot run obliviously on shares, so the secure version
  uses the standard MPC-friendly substitute (subgradient descent on the
  same objective) — see DESIGN.md.

Beyond the paper: **attention** (one self-attention block + readout,
:mod:`repro.core.attention`) and **recsys** (oblivious embedding lookup
+ ReLU + dense head, :mod:`repro.core.recsys`).

:data:`MODELS` names every model.  Each is declared once, by its
constructor: a list of :class:`LayerSpec` (kind, geometry, the secure
layer's name) for the geometry it is given.  :func:`build_secure` builds
it on a context; :func:`build_plain` builds the float twin
(:mod:`repro.baselines.plain`) of the same specs from one seed;
:func:`sync_plain` copies the secure weights into the twin.  Only the
SVM's hinge step and the RNN's BPTT are model-specific train steps, one
class on each side.

Every model exposes ``forward`` / ``train_batch`` over
:class:`~repro.core.tensor.SharedTensor` inputs, so one trainer drives
them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.baselines.plain import (
    PlainActivation,
    PlainAttentionBlock,
    PlainConv2D,
    PlainDense,
    PlainEmbedding,
    PlainModel,
    PlainRNN,
    PlainRNNCell,
    PlainSVM,
)
from repro.core import ops
from repro.core.attention import SecureAttentionBlock
from repro.core.layers import (
    SecureActivation,
    SecureConv2D,
    SecureDense,
    SecureLayer,
    SecureRNNCell,
)
from repro.core.recsys import SecureEmbedding
from repro.core.tensor import SharedTensor
from repro.simgpu.kernels import conv_output_size
from repro.util.errors import ConfigError, ProtocolError, ShapeError


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a declaration.

    ``geometry`` holds the keyword arguments both twins' constructors
    take; ``name`` is the secure layer's (it seeds the layer's weights
    and labels its streams and checkpoint entries).
    """

    kind: str
    name: str
    geometry: dict


#: layer kind -> (secure layer, plain twin)
_KINDS = {
    "dense": (SecureDense, PlainDense),
    "act": (SecureActivation, PlainActivation),
    "conv": (SecureConv2D, PlainConv2D),
    "rnn": (SecureRNNCell, PlainRNNCell),
    "attention": (SecureAttentionBlock, PlainAttentionBlock),
    "embedding": (SecureEmbedding, PlainEmbedding),
}


def _dense(name: str, d_in: int, d_out: int) -> LayerSpec:
    return LayerSpec("dense", name, {"in_features": d_in, "out_features": d_out})


def _act(name: str, kind: str = "relu") -> LayerSpec:
    return LayerSpec("act", name, {"kind": kind})


class SecureModel:
    """Base: a stack of layers plus a loss gradient.

    A model's constructor declares its layers as :class:`LayerSpec` s
    and passes them here, which builds them on ``ctx`` — or, with
    ``ctx=None``, keeps the specs: :meth:`declare`, from which
    :func:`build_plain` derives the plain twin.  A model that wires its
    own layers (``SecureResNet``) passes none and fills ``self.layers``.
    """

    def __init__(self, ctx, layers: list[LayerSpec] = ()):
        self.ctx = ctx
        self.layers: list[SecureLayer] = (
            list(layers)
            if ctx is None
            else [_KINDS[spec.kind][0](ctx, name=spec.name, **spec.geometry) for spec in layers]
        )

    @classmethod
    def declare(cls, *geometry, **options) -> list[LayerSpec]:
        """The model's layers at ``geometry``, as specs (no context, no weights)."""
        return cls(None, *geometry, **options).layers

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def loss_delta(self, pred: SharedTensor, y: SharedTensor) -> SharedTensor:
        """dLoss/dPred; squared-error style by default (shared, local)."""
        return pred - y

    def _first_trainable(self) -> int:
        """Index of the earliest layer with parameters (``len`` if none)."""
        for i, layer in enumerate(self.layers):
            if layer.parameters():
                return i
        return len(self.layers)

    def backward(self, delta: SharedTensor) -> None:
        """Back-propagate ``delta`` down to the first trainable layer.

        Stop rule: a layer's input gradient is computed only if some
        earlier layer has parameters.  The earliest layer with
        ``parameters()`` is called with ``input_grad=False`` — it still
        accumulates its own ``dW``/``db`` but runs no secure ``dX``
        product — and parameter-free layers before it are not visited.
        The gradient of the input data is never computed, so nothing is
        returned.
        """
        stop = self._first_trainable()
        for i in range(len(self.layers) - 1, stop - 1, -1):
            layer = self.layers[i]
            delta = layer.backward(delta, input_grad=i > stop)
            if delta is None and i > stop:
                raise ProtocolError(
                    f"{getattr(layer, 'name', type(layer).__name__)}: backward returned "
                    "no input gradient but an earlier layer has parameters"
                )

    def apply_gradients(self, lr: float) -> None:
        for layer in self.layers:
            layer.apply_gradients(lr)

    def train_batch(self, x: SharedTensor, y: SharedTensor, lr: float) -> SharedTensor:
        """One forward + backward + update; returns the predictions."""
        pred = self.forward(x, training=True)
        delta = self.loss_delta(pred, y)
        self.backward(delta)
        self.apply_gradients(lr)
        return pred

    def parameters(self) -> list[SharedTensor]:
        return [p for layer in self.layers for p in layer.parameters()]


class SecureMLP(SecureModel):
    """Input -> 128 -> 64 -> 10 with ReLU (paper Section 7.1)."""

    def __init__(self, ctx, input_dim: int, hidden: tuple[int, ...] = (128, 64), n_out: int = 10):
        dims = [input_dim, *hidden, n_out]
        layers = []
        for li, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(_dense(f"mlp{li}", d_in, d_out))
            if li < len(dims) - 2:
                layers.append(_act(f"mlp{li}act"))
        super().__init__(ctx, layers)


class SecureCNN(SecureModel):
    """One 5x5 conv + two dense layers, ReLU (paper Section 7.1)."""

    def __init__(
        self,
        ctx,
        image_shape: tuple[int, int, int],
        *,
        conv_channels: int = 8,
        hidden: int = 64,
        n_out: int = 10,
        kernel: int = 5,
        conv_stride: int = 1,
    ):
        out_h, out_w = conv_output_size(*image_shape[:2], kernel, kernel, conv_stride)
        conv = {"in_shape": tuple(image_shape), "out_channels": conv_channels, "kernel": kernel}
        super().__init__(ctx, [
            LayerSpec("conv", "conv0", {**conv, "stride": conv_stride}),
            _act("conv0act"),
            _dense("fc1", out_h * out_w * conv_channels, hidden),
            _act("fc1act"),
            _dense("fc2", hidden, n_out),
        ])


class SecureLinearRegression(SecureModel):
    """y = X w + b with squared loss."""

    def __init__(self, ctx, input_dim: int, n_out: int = 1):
        super().__init__(ctx, [_dense("linreg", input_dim, n_out)])


class SecureLogisticRegression(SecureModel):
    """Linear scores + the Eq. 9 piecewise activation (sigmoid stand-in)."""

    def __init__(self, ctx, input_dim: int, n_out: int = 1):
        super().__init__(ctx, [_dense("logreg", input_dim, n_out), _act("logregact", "piecewise")])


class SecureAttention(SecureModel):
    """Attention block + dense readout."""

    def __init__(self, ctx, seq_len: int, d_model: int, *, n_out: int = 3):
        super().__init__(ctx, [
            LayerSpec("attention", "attn", {"seq_len": seq_len, "d_model": d_model}),
            _dense("attnout", d_model, n_out),
        ])
        self.block, self.readout = self.layers


class SecureRecsys(SecureModel):
    """Embedding + ReLU + dense head."""

    def __init__(self, ctx, vocab: int, emb_dim: int, *, n_out: int = 3):
        super().__init__(ctx, [
            LayerSpec("embedding", "emb", {"vocab": vocab, "emb_dim": emb_dim}),
            _act("embact"),
            _dense("rechead", emb_dim, n_out),
        ])
        self.embedding = self.layers[0]


class SecureSVM(SecureModel):
    """Linear SVM; hinge subgradient with secure margin comparison.

    Loss: mean(max(0, 1 - y * s)) + (reg/2)||w||^2 for labels in
    {-1, +1}.  The subgradient needs the indicator [1 - y*s >= 0],
    computed with the same secure-comparison machinery the activations
    use.
    """

    def __init__(self, ctx, input_dim: int, *, reg: float = 1e-3):
        super().__init__(ctx, [_dense("svm", input_dim, 1)])
        (self.dense,) = self.layers
        self.reg = reg

    def train_batch(self, x: SharedTensor, y: SharedTensor, lr: float) -> SharedTensor:
        scores = self.dense.forward(x, training=True)
        # margin = 1 - y * s  (y shared, s shared -> one Hadamard triplet)
        ys = ops.secure_elementwise_mul(y, scores, label="svm/ys")
        margin = (-ys).add_public(1.0)
        active = ops.secure_compare_const(margin, 0.0, label="svm/active")
        # subgradient dL/ds = -y * active  (indicator product, single scale)
        coeff = ops.secure_elementwise_mul(-y, active, label="svm/coeff")
        batch = x.shape[0]
        grad_w = ops.secure_matmul(x.T, coeff, label="svm/dW").mul_public(1.0 / batch)
        grad_w = grad_w + self.dense.weight.mul_public(self.reg)
        grad_b = coeff.sum_rows().mul_public(1.0 / batch)
        self.dense.weight = (self.dense.weight - grad_w.mul_public(lr)).mark_static()
        self.dense.bias = self.dense.bias - grad_b.mul_public(lr)
        return scores


class SecureRNN(SecureModel):
    """Elman RNN over (batch, time, features) + dense readout.

    Sequence input is supplied flattened as (batch, time*features); the
    model re-slices per step (a local share operation).
    """

    def __init__(self, ctx, n_steps: int, step_features: int, hidden: int = 64, n_out: int = 10):
        super().__init__(ctx, [
            LayerSpec("rnn", "rnn", {"in_features": step_features, "hidden": hidden}),
            _dense("rnnout", hidden, n_out),
        ])
        self.n_steps = n_steps
        self.step_features = step_features
        self.cell, self.readout = self.layers

    def _slice_step(self, x: SharedTensor, t: int) -> SharedTensor:
        lo = t * self.step_features
        hi = lo + self.step_features
        return SharedTensor(
            ctx=self.ctx,
            shares=tuple(np.ascontiguousarray(s[:, lo:hi]) for s in x.shares),
            kind=x.kind,
            tasks=x.tasks,
        )

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        if x.shape[1] != self.n_steps * self.step_features:
            raise ShapeError(
                f"RNN expects {self.n_steps * self.step_features} features, got {x.shape[1]}"
            )
        h = self.cell.zero_state(x.shape[0])
        for t in range(self.n_steps):
            h = self.cell.step(self._slice_step(x, t), h, t, training=training)
        return self.readout.forward(h, training=training)

    def train_batch(self, x: SharedTensor, y: SharedTensor, lr: float) -> SharedTensor:
        pred = self.forward(x, training=True)
        delta = self.loss_delta(pred, y)
        delta_h = self.readout.backward(delta)
        self.cell.backward_through_time(delta_h)
        self.readout.apply_gradients(lr)
        self.cell.apply_gradients(lr)
        return pred


class ModelEntry(NamedTuple):
    """A :data:`MODELS` entry.  ``secure``'s constructor declares the
    layers; ``plain`` holds the built plain layers (:class:`PlainModel`
    unless the model has its own train step)."""

    secure: type[SecureModel]
    plain: type[PlainModel] = PlainModel
    #: a workload beyond the paper's 26-cell grid (SYNTHETIC only)
    workload: bool = False


#: Every model, by bench-suite name, in the paper grid's order.
MODELS: dict[str, ModelEntry] = {
    "CNN": ModelEntry(SecureCNN),
    "MLP": ModelEntry(SecureMLP),
    "linear": ModelEntry(SecureLinearRegression),
    "logistic": ModelEntry(SecureLogisticRegression),
    "SVM": ModelEntry(SecureSVM, PlainSVM),
    "RNN": ModelEntry(SecureRNN, PlainRNN),
    "attention": ModelEntry(SecureAttention, workload=True),
    "recsys": ModelEntry(SecureRecsys, workload=True),
}


def _declared(name: str) -> ModelEntry:
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}; declared: {list(MODELS)}")
    return MODELS[name]


def build_secure(name: str, ctx, *geometry, **options) -> SecureModel:
    """The secure model ``name`` at ``geometry`` on ``ctx``."""
    return _declared(name).secure(ctx, *geometry, **options)


def build_plain(name: str, *geometry, seed: int = 0, **options) -> PlainModel:
    """The float twin of ``name`` at ``geometry``, every layer drawing
    its initial weights from one ``default_rng(seed)`` in layer order."""
    model = _declared(name)
    rng = np.random.default_rng(seed)
    specs = model.secure.declare(*geometry, **options)
    return model.plain([_KINDS[spec.kind][1](rng=rng, **spec.geometry) for spec in specs])


def sync_plain(secure: SecureModel, plain: PlainModel) -> None:
    """Copy the secure model's decoded weights into its plain twin.

    Both inits are random; conformance compares *arithmetic*, so the
    twins must start from identical parameters (the secure side's
    decoded fixed-point values, which the plain model can represent
    exactly).  Layer by layer, ``parameters()`` into ``parameters()``;
    a twin of another geometry raises :class:`ShapeError` naming the
    secure layer and parameter, and is left as it was.
    """
    if len(secure.layers) != len(plain.layers):
        raise ShapeError(
            f"secure model has {len(secure.layers)} layers, plain twin {len(plain.layers)}"
        )
    copies = []
    for s_layer, p_layer in zip(secure.layers, plain.layers):
        ours, theirs = s_layer.parameters(), p_layer.parameters()
        if len(ours) != len(theirs):
            raise ShapeError(
                f"{s_layer.name}: {len(ours)} parameters, plain twin has {len(theirs)}"
            )
        for i, (tensor, array) in enumerate(zip(ours, theirs)):
            if tensor.shape != array.shape:
                attr = next((a for a, v in vars(s_layer).items() if v is tensor), i)
                raise ShapeError(
                    f"{s_layer.name}/{attr}: secure {tensor.shape}, plain twin {array.shape}"
                )
            copies.append((array, tensor))
    for array, tensor in copies:
        array[...] = tensor.decode()
