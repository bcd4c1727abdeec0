"""Secure embedding-lookup recommendation workload.

The MPC-friendly embedding lookup: the client one-hot (or multi-hot)
encodes its categorical features and the servers compute
``one_hot @ table`` as an ordinary Beaver-triplet GEMM — data-dependent
gather indices would leak which rows were touched, so the oblivious
formulation pays a full GEMM whose *plaintext* is sparse.

What makes the workload interesting for this framework is the wire, not
the FLOPs: the embedding table is a static operand (``mark_static``)
and the dominant matrix in the model, so under the default per-label
triplet caching its masked difference ``F = table - V`` is
byte-identical across inference batches.  The servers open and upload
it once and reuse it until table or mask changes (DESIGN §5b) — which
superseded the all-zero deltas the
:class:`~repro.comm.compression.DeltaCompressor` used to ship for it in
``(rows+1)*8``-byte CSR frames.  The recsys entry stays the
conformance/bench workload that *measures* what compression earns on
top: nothing, compression on and off are byte-equal (methodology in
DESIGN §7c).

:class:`SecureRecsys` = embedding + ReLU + dense head, trainable by the
standard trainer; the plaintext twin is
:class:`repro.baselines.plain.PlainRecsys`.
"""

from __future__ import annotations

import numpy as np

from repro.core import ops
from repro.core.layers import SecureActivation, SecureDense, SecureLayer
from repro.core.models import SecureModel
from repro.core.tensor import SharedTensor
from repro.util.errors import ProtocolError, ShapeError

__all__ = ["SecureEmbedding", "SecureRecsys"]


class SecureEmbedding(SecureLayer):
    """Oblivious embedding lookup: ``one_hot @ table``, no bias.

    A :class:`~repro.core.layers.SecureDense` minus the bias — embedding
    rows have no additive offset, and keeping the layer bias-free means
    the only traffic it generates is the one GEMM whose static operand
    is opened once.
    """

    def __init__(self, ctx, vocab: int, emb_dim: int, *, name: str = "emb"):
        self.ctx = ctx
        self.name = name
        self.in_features = vocab
        self.out_features = emb_dim
        rng = ctx.seeds.generator(f"init-{name}")
        scale = 1.0 / np.sqrt(vocab)
        self.weight = SharedTensor.from_plain(
            ctx, rng.uniform(-scale, scale, size=(vocab, emb_dim)), label=f"{name}/table"
        ).mark_static()
        self._x: SharedTensor | None = None
        self._grad_w: SharedTensor | None = None

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected {self.in_features} one-hot columns, got {x.shape[1]}"
            )
        if training:
            self._x = x
        return ops.secure_matmul(x, self.weight, label=f"{self.name}/fwd")

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        if self._x is None:
            raise ProtocolError(f"{self.name}: backward before forward")
        batch = self._x.shape[0]
        grad_w = ops.secure_matmul(self._x.T, delta, label=f"{self.name}/dW")
        self._grad_w = grad_w.mul_public(1.0 / batch)
        if not input_grad:
            return None
        return ops.secure_matmul(delta, self.weight.T, label=f"{self.name}/dX")

    def apply_gradients(self, lr: float) -> None:
        if self._grad_w is None:
            raise ProtocolError(f"{self.name}: apply_gradients before backward")
        self.weight = (self.weight - self._grad_w.mul_public(lr)).mark_static()
        self._grad_w = None

    def parameters(self) -> list[SharedTensor]:
        return [self.weight]


class SecureRecsys(SecureModel):
    """Embedding + ReLU + dense head — the ``recsys`` registry entry."""

    def __init__(self, ctx, vocab: int, emb_dim: int, *, n_out: int = 3):
        super().__init__(ctx)
        self.embedding = SecureEmbedding(ctx, vocab, emb_dim, name="emb")
        self.layers = [
            self.embedding,
            SecureActivation(ctx, "relu", name="embact"),
            SecureDense(ctx, emb_dim, n_out, name="rechead"),
        ]
