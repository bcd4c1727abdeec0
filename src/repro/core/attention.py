"""Secure single-head transformer attention (the CrypTen-era workload).

One :class:`SecureAttentionBlock` runs scaled dot-product self-attention
over a length-``seq_len`` sequence of ``d_model``-wide tokens, supplied
flattened as ``(batch, seq_len * d_model)`` like the RNN's input.  Every
product is a secure matmul — flat ``(batch*seq, ·)`` GEMMs against the
weights, ``(batch, ·, ·)`` stacks (one triplet, one exchange round, one
batched GEMM each) between per-sample activations:

1. **projections** — one product ``[Q|K|V] = X W_qkv`` against the
   fused ``(d, 3d)`` weight, so ``X`` is opened once;
2. **scores** — ``S = Q K^T / sqrt(d)`` as a ``(b,s,d) x (b,d,s)`` stack;
3. **softmax** — the backend's :meth:`softmax` protocol
   (:mod:`repro.mpc.softmax`) row-wise on the ``(batch*seq, seq)``
   scores;
4. **mix + output** — ``C = A V`` as a ``(b,s,s) x (b,s,d)`` stack, then
   ``O = C W_o`` and a mean-pool over the sequence axis (local linear +
   one public scale), yielding ``(batch, d_model)`` features.

The backward pass is the standard attention gradient on the same two op
shapes: ``dA = dC V^T``, ``dV = A^T dC``, ``dQ = dS K`` and
``dK = dS^T Q`` are stacks, the softmax Jacobian
``dS = A (dA - rowsum(A dA))`` is two elementwise triplets, and
``dW_qkv = X^T [dQ|dK|dV]`` and ``dX = [dQ|dK|dV] W_qkv^T`` are one flat
product each.

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


def _split_cols(x: SharedTensor, parts: int) -> list[SharedTensor]:
    """Equal column blocks of a 2-D tensor — local."""
    width = x.shape[1] // parts
    return [
        _local(x, (s[:, lo : lo + width] for s in x.shares))
        for lo in range(0, parts * width, width)
    ]


def _concat_cols(parts: list[SharedTensor]) -> SharedTensor:
    """Column blocks side by side; each share is ready when all its blocks are."""
    ctx = parts[0].ctx
    return SharedTensor(
        ctx=ctx,
        shares=tuple(
            np.concatenate([p.shares[i] for p in parts], axis=1)
            for i in range(ctx.n_parties)
        ),
        tasks=tuple(
            ctx.online_clock.join([p.tasks[i] for p in parts]) for i in range(ctx.n_parties)
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

        def weight(tag: str, blocks: int) -> SharedTensor:
            # one (d, d) uniform draw per block, side by side
            plain = [rng.uniform(-scale, scale, size=(d_model, d_model)) for _ in range(blocks)]
            return SharedTensor.from_plain(
                ctx, np.concatenate(plain, axis=1), label=f"{name}/W{tag}"
            ).mark_static()

        self.w_qkv = weight("qkv", 3)  # [W_q | W_k | W_v]
        self.w_o = weight("o", 1)
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
        qkv = ops.secure_matmul(x2, self.w_qkv, label=f"{self.name}/qkv")
        q, k, v = (t.reshape(b, s, d) for t in _split_cols(qkv, 3))

        scores = ops.secure_matmul(q, k.T, label=f"{self.name}/qk")
        attn = ops.secure_softmax(
            scores.reshape(b * s, s).mul_public(1.0 / np.sqrt(d)), label=f"{self.name}/softmax"
        )
        context = ops.secure_matmul(
            attn.reshape(b, s, s), v, label=f"{self.name}/av"
        ).reshape(b * s, d)
        o2 = ops.secure_matmul(context, self.w_o, label=f"{self.name}/o")
        pooled = _local(
            o2, (ring_sum(sh.reshape(b, s, d), axis=1) for sh in o2.shares)
        ).mul_public(1.0 / s)

        if training:
            self._tape = {
                "batch": b, "x2": x2, "q": q, "k": k, "v": v,
                "attn": attn, "context": context,
            }
        return pooled

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        if self._tape is None:
            raise ProtocolError(f"{self.name}: backward before forward")
        tape, self._tape = self._tape, None
        b, s, d = tape["batch"], self.seq_len, self.d_model
        attn = tape["attn"]

        # mean-pool (every token gets delta / s) and output projection
        pool = delta.mul_public(1.0 / s)
        do2 = _local(pool, (np.repeat(sh, s, axis=0) for sh in pool.shares))
        gw_o = ops.secure_matmul(
            tape["context"].T, do2, label=f"{self.name}/dWo"
        ).mul_public(1.0 / b)
        dc = ops.secure_matmul(do2, self.w_o.T, label=f"{self.name}/dC").reshape(b, s, d)

        # attention-weight and value gradients, per sample
        da = ops.secure_matmul(dc, tape["v"].T, label=f"{self.name}/dA").reshape(b * s, s)
        dv = ops.secure_matmul(attn.reshape(b, s, s).T, dc, label=f"{self.name}/dV")

        # softmax Jacobian: dS = A * (dA - rowsum(A * dA)), then undo the
        # score scaling
        ad = ops.secure_elementwise_mul(attn, da, label=f"{self.name}/sm1")
        ds = (
            ops.secure_elementwise_mul(attn, da - _row_sum_bcast(ad), label=f"{self.name}/sm2")
            .mul_public(1.0 / np.sqrt(d))
            .reshape(b, s, s)
        )
        dq = ops.secure_matmul(ds, tape["k"], label=f"{self.name}/dQ")
        dk = ops.secure_matmul(ds.T, tape["q"], label=f"{self.name}/dK")

        x2 = tape["x2"]
        dqkv = _concat_cols([t.reshape(b * s, d) for t in (dq, dk, dv)])
        self._grads = {
            "w_o": gw_o,
            "w_qkv": ops.secure_matmul(
                x2.T, dqkv, label=f"{self.name}/dWqkv"
            ).mul_public(1.0 / b),
        }
        if not input_grad:
            return None
        dx2 = ops.secure_matmul(dqkv, self.w_qkv.T, label=f"{self.name}/dX")
        return dx2.reshape(b, s * d)

    def apply_gradients(self, lr: float) -> None:
        if self._grads is None:
            raise ProtocolError(f"{self.name}: apply_gradients before backward")
        for attr, grad in self._grads.items():
            setattr(self, attr, (getattr(self, attr) - grad.mul_public(lr)).mark_static())
        self._grads = None

    def parameters(self) -> list[SharedTensor]:
        return [self.w_qkv, self.w_o]

    def plan_streams(
        self, in_shape: tuple[int, ...], *, training: bool, input_grad: bool = True
    ) -> tuple[list[TripletRequest], tuple[int, ...]]:
        b = in_shape[0]
        s, d = self.seq_len, self.d_model
        bs = b * s
        proj = matmul_stream((bs, d), (d, d))
        by_key = matmul_stream((b, s, d), (b, d, s))  # (b,s,d) against a transposed (b,s,d)
        by_weight = matmul_stream((b, s, s), (b, s, d))  # (b,s,s) weights mixing (b,s,d)
        reqs = [matmul_stream((bs, d), (d, 3 * d))]  # qkv
        reqs.append(by_key)  # qk
        reqs.extend(plan_softmax_streams(bs, s, self.ctx.encoder.frac_bits))
        reqs.append(by_weight)  # av
        reqs.append(proj)  # output projection
        if training:
            reqs.append(matmul_stream((d, bs), (bs, d)))  # dWo
            reqs.append(proj)  # dC
            reqs.append(by_key)  # dA
            reqs.append(by_weight)  # dV
            reqs.append(hadamard_stream((bs, s)))  # sm1
            reqs.append(hadamard_stream((bs, s)))  # sm2
            reqs.extend([by_weight] * 2)  # dQ, dK
            reqs.append(matmul_stream((d, bs), (bs, 3 * d)))  # dWqkv
            if input_grad:
                reqs.append(matmul_stream((bs, 3 * d), (3 * d, d)))  # dX
        return reqs, (b, d)


class SecureAttention(SecureModel):
    """Attention block + dense readout — the ``attention`` registry entry."""

    def __init__(self, ctx, seq_len: int, d_model: int, *, n_out: int = 3):
        super().__init__(ctx)
        self.block = SecureAttentionBlock(ctx, seq_len, d_model, name="attn")
        self.readout = SecureDense(ctx, d_model, n_out, name="attnout")
        self.layers = [self.block, self.readout]
