"""The paper's six benchmark models, built on the secure layers.

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
  same objective) while the plain-text SMO lives in
  :mod:`repro.baselines.plain` — see DESIGN.md.

Every model exposes ``forward`` / ``train_batch`` over
:class:`~repro.core.tensor.SharedTensor` inputs, so one trainer drives
them all.
"""

from __future__ import annotations

import numpy as np

from repro.core import ops
from repro.core.layers import (
    SecureActivation,
    SecureConv2D,
    SecureDense,
    SecureLayer,
    SecureRNNCell,
)
from repro.core.tensor import SharedTensor
from repro.util.errors import ProtocolError, ShapeError


class SecureModel:
    """Base: a stack of layers plus a loss gradient."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.layers: list[SecureLayer] = []

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
        super().__init__(ctx)
        dims = [input_dim, *hidden, n_out]
        for li, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            self.layers.append(SecureDense(ctx, d_in, d_out, name=f"mlp{li}"))
            if li < len(dims) - 2:
                self.layers.append(SecureActivation(ctx, "relu", name=f"mlp{li}act"))


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
        super().__init__(ctx)
        conv = SecureConv2D(
            ctx, image_shape, conv_channels, kernel, stride=conv_stride, name="conv0"
        )
        flat = conv.out_h * conv.out_w * conv_channels
        self.layers = [
            conv,
            SecureActivation(ctx, "relu", name="conv0act"),
            SecureDense(ctx, flat, hidden, name="fc1"),
            SecureActivation(ctx, "relu", name="fc1act"),
            SecureDense(ctx, hidden, n_out, name="fc2"),
        ]


class SecureLinearRegression(SecureModel):
    """y = X w + b with squared loss."""

    def __init__(self, ctx, input_dim: int, n_out: int = 1):
        super().__init__(ctx)
        self.layers = [SecureDense(ctx, input_dim, n_out, name="linreg")]


class SecureLogisticRegression(SecureModel):
    """Linear scores + the Eq. 9 piecewise activation (sigmoid stand-in)."""

    def __init__(self, ctx, input_dim: int, n_out: int = 1):
        super().__init__(ctx)
        self.layers = [
            SecureDense(ctx, input_dim, n_out, name="logreg"),
            SecureActivation(ctx, "piecewise", name="logregact"),
        ]


class SecureSVM(SecureModel):
    """Linear SVM; hinge subgradient with secure margin comparison.

    Loss: mean(max(0, 1 - y * s)) + (reg/2)||w||^2 for labels in
    {-1, +1}.  The subgradient needs the indicator [1 - y*s >= 0],
    computed with the same secure-comparison machinery the activations
    use.
    """

    def __init__(self, ctx, input_dim: int, *, reg: float = 1e-3):
        super().__init__(ctx)
        self.dense = SecureDense(ctx, input_dim, 1, name="svm")
        self.layers = [self.dense]
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
        super().__init__(ctx)
        self.n_steps = n_steps
        self.step_features = step_features
        self.cell = SecureRNNCell(ctx, step_features, hidden, name="rnn")
        self.readout = SecureDense(ctx, hidden, n_out, name="rnnout")
        self.layers = [self.cell, self.readout]

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
