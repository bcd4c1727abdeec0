"""Secure single-head transformer attention (the CrypTen-era workload).

One :class:`SecureAttentionBlock` runs scaled dot-product self-attention
over a length-``seq_len`` sequence of ``d_model``-wide tokens, supplied
flattened as ``(batch, seq_len * d_model)`` like the RNN's input:

1. **projections** — ``Q/K/V = X W_q/k/v`` as three pooled triplet GEMMs
   over the token-flattened ``(batch*seq, d_model)`` view;
2. **scores** — ``S = Q K^T / sqrt(d)`` per sample.  Batched per-sample
   GEMMs are expressed through the framework's 2-D op set by *Hadamard
   expansion*: ``Q`` rows repeated and ``K`` rows tiled to the
   ``(batch*seq*seq, d_model)`` pair grid, one elementwise triplet, and
   a local feature-axis sum — a constant op count per batch, so the
   double pipeline sees one wide product instead of ``batch`` small
   ones (the same lowering trick as im2col for convolutions);
3. **softmax** — the backend's :meth:`softmax` protocol
   (:mod:`repro.mpc.softmax`) row-wise on the ``(batch*seq, seq)``
   scores;
4. **mix + output** — ``C = A V`` by the same expansion, then
   ``O = C W_o`` and a mean-pool over the sequence axis (local linear +
   one public scale), yielding ``(batch, d_model)`` features.

The backward pass re-uses the expansion grids from the tape: every
einsum in the standard attention gradient (``dA = dC V^T``,
``dV = A^T dC``, the softmax Jacobian ``dS = A (dA - rowsum(A dA))``,
``dQ = dS K``, ``dK = dS^T Q``) is one elementwise triplet plus a local
axis sum, and the four weight gradients are plain triplet GEMMs.

:class:`SecureAttention` is the model-registry entry: the block plus a
dense readout, trainable by the standard
:class:`~repro.core.training.SecureTrainer` loop.
"""

from __future__ import annotations

import numpy as np

from repro.core import ops
from repro.core.layers import SecureDense, SecureLayer
from repro.core.models import SecureModel
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import ring_sum
from repro.mpc.pool import TripletRequest, hadamard_stream, matmul_stream
from repro.mpc.softmax import plan_softmax_streams
from repro.util.errors import ProtocolError, ShapeError

__all__ = ["SecureAttention", "SecureAttentionBlock"]


def _local(x: SharedTensor, shares) -> SharedTensor:
    """New tensor from locally transformed shares (tasks carried over)."""
    return SharedTensor(
        ctx=x.ctx,
        shares=tuple(np.ascontiguousarray(s) for s in shares),
        kind=x.kind,
        tasks=x.tasks,
    )


def _repeat_rows(x: SharedTensor, times: int) -> SharedTensor:
    """Each row repeated ``times`` consecutively: (n, d) -> (n*times, d)."""
    return _local(x, (np.repeat(s, times, axis=0) for s in x.shares))


def _tile_blocks(x: SharedTensor, batch: int, seq: int) -> SharedTensor:
    """Each sample's seq-block tiled seq times: row (b,i,j) -> x[b*seq+j]."""
    d = x.shape[1]
    return _local(
        x,
        (
            np.broadcast_to(s.reshape(batch, 1, seq, d), (batch, seq, seq, d)).reshape(
                batch * seq * seq, d
            )
            for s in x.shares
        ),
    )


def _bcast_feature(x: SharedTensor, d: int) -> SharedTensor:
    """Tile an (n, 1) tensor across the feature axis to (n, d)."""
    n = x.shape[0]
    return _local(x, (np.broadcast_to(s, (n, d)) for s in x.shares))


def _sum_feature(x: SharedTensor) -> SharedTensor:
    """Row sums over the feature axis: (n, d) -> (n, 1) — local linear."""
    return _local(x, (ring_sum(s, axis=1).reshape(-1, 1) for s in x.shares))


def _sum_pairs(x: SharedTensor, batch: int, seq: int, axis: int) -> SharedTensor:
    """Sum the (batch, seq, seq, d) pair grid over query (1) or key (2)."""
    d = x.shape[1]
    return _local(
        x,
        (
            ring_sum(s.reshape(batch, seq, seq, d), axis=axis).reshape(batch * seq, d)
            for s in x.shares
        ),
    )


def _row_sum_bcast(x: SharedTensor) -> SharedTensor:
    """rowsum(x) broadcast back over x's columns — local linear."""
    n, d = x.shape
    return _local(
        x, (np.broadcast_to(ring_sum(s, axis=1).reshape(n, 1), (n, d)) for s in x.shares)
    )


class SecureAttentionBlock(SecureLayer):
    """Scaled dot-product self-attention with a sequence mean-pool."""

    def __init__(self, ctx, seq_len: int, d_model: int, *, name: str = "attn"):
        if seq_len < 1 or d_model < 1:
            raise ShapeError(f"{name}: seq_len and d_model must be >= 1")
        self.ctx = ctx
        self.name = name
        self.seq_len = seq_len
        self.d_model = d_model
        self.in_features = seq_len * d_model
        self.out_features = d_model
        rng = ctx.seeds.generator(f"init-{name}")
        scale = 1.0 / np.sqrt(d_model)

        def proj(tag: str) -> SharedTensor:
            return SharedTensor.from_plain(
                ctx,
                rng.uniform(-scale, scale, size=(d_model, d_model)),
                label=f"{name}/W{tag}",
            ).mark_static()

        self.w_q = proj("q")
        self.w_k = proj("k")
        self.w_v = proj("v")
        self.w_o = proj("o")
        self._tape: dict | None = None
        self._grads: dict | None = None

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        s, d = self.seq_len, self.d_model
        if x.ndim != 2 or x.shape[1] != s * d:
            raise ShapeError(
                f"{self.name}: expected (batch, {s * d}) flattened sequence, got {x.shape}"
            )
        b = x.shape[0]
        x2 = x.reshape(b * s, d)
        q = ops.secure_matmul(x2, self.w_q, label=f"{self.name}/q")
        k = ops.secure_matmul(x2, self.w_k, label=f"{self.name}/k")
        v = ops.secure_matmul(x2, self.w_v, label=f"{self.name}/v")

        qe = _repeat_rows(q, s)
        ke = _tile_blocks(k, b, s)
        pair = ops.secure_elementwise_mul(qe, ke, label=f"{self.name}/qk")
        scores = _sum_feature(pair).reshape(b * s, s).mul_public(1.0 / np.sqrt(d))
        attn = ops.secure_softmax(scores, label=f"{self.name}/softmax")

        ae = _bcast_feature(attn.reshape(b * s * s, 1), d)
        ve = _tile_blocks(v, b, s)
        mix = ops.secure_elementwise_mul(ae, ve, label=f"{self.name}/av")
        context = _sum_pairs(mix, b, s, axis=2)
        o2 = ops.secure_matmul(context, self.w_o, label=f"{self.name}/o")
        pooled = _local(
            o2, (ring_sum(sh.reshape(b, s, d), axis=1) for sh in o2.shares)
        ).mul_public(1.0 / s)

        if training:
            self._tape = {
                "batch": b, "x2": x2, "qe": qe, "ke": ke, "ve": ve,
                "attn": attn, "ae": ae, "context": context,
            }
        return pooled

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        if self._tape is None:
            raise ProtocolError(f"{self.name}: backward before forward")
        tape, self._tape = self._tape, None
        b, s, d = tape["batch"], self.seq_len, self.d_model

        # mean-pool and output projection
        do2 = _repeat_rows(delta.mul_public(1.0 / s), s)
        gw_o = ops.secure_matmul(
            tape["context"].T, do2, label=f"{self.name}/dWo"
        ).mul_public(1.0 / b)
        dc2 = ops.secure_matmul(do2, self.w_o.T, label=f"{self.name}/dC")

        # attention-weight and value gradients over the pair grid
        dce = _repeat_rows(dc2, s)
        da = _sum_feature(
            ops.secure_elementwise_mul(dce, tape["ve"], label=f"{self.name}/dA")
        ).reshape(b * s, s)
        dv = _sum_pairs(
            ops.secure_elementwise_mul(tape["ae"], dce, label=f"{self.name}/dV"),
            b, s, axis=1,
        )

        # softmax Jacobian: dS = A * (dA - rowsum(A * dA)), then undo the
        # score scaling
        ad = ops.secure_elementwise_mul(tape["attn"], da, label=f"{self.name}/sm1")
        ds = ops.secure_elementwise_mul(
            tape["attn"], da - _row_sum_bcast(ad), label=f"{self.name}/sm2"
        ).mul_public(1.0 / np.sqrt(d))

        dse = _bcast_feature(ds.reshape(b * s * s, 1), d)
        dq = _sum_pairs(
            ops.secure_elementwise_mul(dse, tape["ke"], label=f"{self.name}/dQ"),
            b, s, axis=2,
        )
        dk = _sum_pairs(
            ops.secure_elementwise_mul(dse, tape["qe"], label=f"{self.name}/dK"),
            b, s, axis=1,
        )

        x2 = tape["x2"]
        self._grads = {
            "w_o": gw_o,
            "w_q": ops.secure_matmul(x2.T, dq, label=f"{self.name}/dWq").mul_public(1.0 / b),
            "w_k": ops.secure_matmul(x2.T, dk, label=f"{self.name}/dWk").mul_public(1.0 / b),
            "w_v": ops.secure_matmul(x2.T, dv, label=f"{self.name}/dWv").mul_public(1.0 / b),
        }
        if not input_grad:
            return None
        dx2 = (
            ops.secure_matmul(dq, self.w_q.T, label=f"{self.name}/dXq")
            + ops.secure_matmul(dk, self.w_k.T, label=f"{self.name}/dXk")
            + ops.secure_matmul(dv, self.w_v.T, label=f"{self.name}/dXv")
        )
        return dx2.reshape(b, s * d)

    def apply_gradients(self, lr: float) -> None:
        if self._grads is None:
            raise ProtocolError(f"{self.name}: apply_gradients before backward")
        for attr, grad in self._grads.items():
            setattr(self, attr, (getattr(self, attr) - grad.mul_public(lr)).mark_static())
        self._grads = None

    def parameters(self) -> list[SharedTensor]:
        return [self.w_q, self.w_k, self.w_v, self.w_o]

    def plan_streams(
        self, in_shape: tuple[int, ...], *, training: bool, input_grad: bool = True
    ) -> tuple[list[TripletRequest], tuple[int, ...]]:
        b = in_shape[0]
        s, d = self.seq_len, self.d_model
        bs, bss = b * s, b * s * s
        proj = matmul_stream((bs, d), (d, d))
        grad_w = matmul_stream((d, bs), (bs, d))
        reqs = [proj, proj, proj]  # q, k, v
        reqs.append(hadamard_stream((bss, d)))  # qk pair grid
        reqs.extend(plan_softmax_streams(bs, s, self.ctx.encoder.frac_bits))
        reqs.append(hadamard_stream((bss, d)))  # av mix
        reqs.append(proj)  # output projection
        if training:
            reqs.append(grad_w)  # dWo
            reqs.append(proj)  # dC
            reqs.append(hadamard_stream((bss, d)))  # dA
            reqs.append(hadamard_stream((bss, d)))  # dV
            reqs.append(hadamard_stream((bs, s)))  # sm1
            reqs.append(hadamard_stream((bs, s)))  # sm2
            reqs.append(hadamard_stream((bss, d)))  # dQ
            reqs.append(hadamard_stream((bss, d)))  # dK
            reqs.extend([grad_w] * 3)  # dWq, dWk, dWv
            if input_grad:
                reqs.extend([proj] * 3)  # dXq, dXk, dXv
        return reqs, (b, d)


class SecureAttention(SecureModel):
    """Attention block + dense readout — the ``attention`` registry entry."""

    def __init__(self, ctx, seq_len: int, d_model: int, *, n_out: int = 3):
        super().__init__(ctx)
        self.block = SecureAttentionBlock(ctx, seq_len, d_model, name="attn")
        self.readout = SecureDense(ctx, d_model, n_out, name="attnout")
        self.layers = [self.block, self.readout]
