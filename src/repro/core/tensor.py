"""SharedTensor: a secret-shared matrix with scale tracking.

A :class:`SharedTensor` bundles the servers' additive shares of one
logical value — one share per party of the active protocol backend (two
for ``beaver2pc``, three for ``rep3``) — plus:

* ``kind`` — ``"fixed"`` for fixed-point encodings (scale
  ``2^frac_bits``) or ``"indicator"`` for integer 0/1 values produced by
  secure comparisons.  The distinction matters for multiplication:
  fixed x fixed products carry double scale and must be truncated,
  fixed x indicator products keep single scale and must *not* be;
* ``tasks`` — the simulated-clock tasks after which each share is
  available, threading the dependency graph (pipeline 2) through the
  data itself.

Linear operations (add, subtract, negate, transpose, reshape, public
scaling) act share-wise and are implemented here; interactive operations
live in :mod:`repro.core.ops`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Literal, Optional

import numpy as np

from repro.fixedpoint.ring import RING_DTYPE, ring_add, ring_mul, ring_neg, ring_sub
from repro.simgpu.clock import Task
from repro.util.errors import ProtocolError, ShapeError

TensorKind = Literal["fixed", "indicator"]

# Monotonic value identity.  The context's mask table records which
# value (uid) each Beaver mask opened; a uid is never recycled, so a
# tensor that replaced another (e.g. an updated weight) can never be
# mistaken for the old value.  Local views that keep the underlying
# values keep the uid — a reshape, and a transpose, which flips
# ``transposed`` so a square ``x.T`` can be told from ``x``; operations
# that change values (or reshape a transposed view, whose layout no
# flag describes) must issue a fresh one.
_TENSOR_UIDS = itertools.count(1)


def _next_tensor_uid() -> int:
    return next(_TENSOR_UIDS)


@dataclass
class SharedTensor:
    """One logical value, additively shared between the servers."""

    ctx: "SecureContext"  # noqa: F821 - circular typing only
    shares: tuple[np.ndarray, ...]
    kind: TensorKind = "fixed"
    tasks: tuple[Optional[Task], ...] = (None, None)
    static: bool = False
    uid: int = field(default_factory=_next_tensor_uid, compare=False)
    transposed: bool = field(default=False, compare=False)  # of the uid's value, last two axes

    def __post_init__(self):
        first = self.shares[0]
        for s in self.shares[1:]:
            if s.shape != first.shape:
                raise ShapeError(f"share shapes differ: {first.shape} vs {s.shape}")
        if any(s.dtype != RING_DTYPE for s in self.shares):
            raise ProtocolError("SharedTensor shares must be uint64 ring elements")
        if len(self.tasks) != len(self.shares):
            self.tasks = tuple(self.tasks) + (None,) * (len(self.shares) - len(self.tasks))

    # ------------------------------------------------------------ construction

    @classmethod
    def from_plain(
        cls, ctx, plain: np.ndarray, *, label: str = "input", kind: TensorKind = "fixed"
    ) -> "SharedTensor":
        """Client-side: encode, share, upload (charged to the offline phase)."""
        if kind == "fixed":
            pair = ctx.share_plain(np.asarray(plain, dtype=np.float64), label=label)
        else:
            pair = ctx.share_ring(ctx.encoder.encode_int(np.asarray(plain)), label=label)
        return cls(ctx=ctx, shares=tuple(pair[i] for i in range(ctx.n_parties)), kind=kind)

    # ------------------------------------------------------------- inspection

    @property
    def n_parties(self) -> int:
        return len(self.shares)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.shares[0].shape

    @property
    def ndim(self) -> int:
        return self.shares[0].ndim

    @property
    def nbytes(self) -> int:
        return self.shares[0].nbytes

    def share(self, party_id: int) -> np.ndarray:
        if not 0 <= party_id < len(self.shares):
            raise ProtocolError(
                f"party_id must be in [0, {len(self.shares)}), got {party_id}"
            )
        return self.shares[party_id]

    def mark_static(self) -> "SharedTensor":
        """Declare the value static across op invocations (layer weights).

        Any value is opened once per online step; a static one is
        opened once per mask — its row in the context's mask table, and
        its ``F`` on the GPU, survive the step until the value changes
        (new uid) — unless ``config.fresh_triplets`` forbids persistent
        masks.  Returns ``self``.
        """
        self.static = True
        return self

    def decode(self) -> np.ndarray:
        """Client-side reconstruction to floats (monitoring / final output)."""
        combined = functools.reduce(ring_add, self.shares)
        if self.kind == "indicator":
            return combined.view(np.int64).astype(np.float64)
        return self.ctx.encoder.decode(combined)

    # ------------------------------------------------ local linear operations

    def _binary_local(self, other: "SharedTensor", op, op_label: str) -> "SharedTensor":
        if not isinstance(other, SharedTensor):
            raise ProtocolError(f"{op_label} expects a SharedTensor operand")
        if self.shape != other.shape:
            raise ShapeError(f"{op_label} shape mismatch: {self.shape} vs {other.shape}")
        if self.kind != other.kind:
            raise ProtocolError(
                f"{op_label} on mismatched kinds {self.kind} vs {other.kind}; "
                f"lift the indicator with to_fixed() first"
            )
        new_shares = []
        new_tasks = []
        for i in range(len(self.shares)):
            result, task = self.ctx.server_cpu[i].elementwise(
                op,
                [self.shares[i], other.shares[i]],
                deps=tuple(t for t in (self.tasks[i], other.tasks[i]) if t is not None),
                label=op_label,
            )
            new_shares.append(result)
            new_tasks.append(task)
        return SharedTensor(
            ctx=self.ctx, shares=tuple(new_shares), kind=self.kind, tasks=tuple(new_tasks)
        )

    def __add__(self, other: "SharedTensor") -> "SharedTensor":
        return self._binary_local(other, ring_add, "add")

    def __sub__(self, other: "SharedTensor") -> "SharedTensor":
        return self._binary_local(other, ring_sub, "sub")

    def __neg__(self) -> "SharedTensor":
        return SharedTensor(
            ctx=self.ctx,
            shares=tuple(ring_neg(s) for s in self.shares),
            kind=self.kind,
            tasks=self.tasks,
        )

    def add_public(self, value: np.ndarray | float) -> "SharedTensor":
        """Add a public constant: server 0 adds, the rest pass through."""
        encoded = (
            self.ctx.encoder.encode(np.asarray(value, dtype=np.float64))
            if self.kind == "fixed"
            else self.ctx.encoder.encode_int(np.asarray(value))
        )
        s0 = ring_add(self.shares[0], np.broadcast_to(encoded, self.shape).astype(RING_DTYPE))
        return SharedTensor(
            ctx=self.ctx, shares=(s0, *self.shares[1:]), kind=self.kind, tasks=self.tasks
        )

    def mul_public_int(self, value: int) -> "SharedTensor":
        """Multiply by a public *integer* (exact, no rescaling needed)."""
        v = np.uint64(int(value) % 2**64)
        return SharedTensor(
            ctx=self.ctx,
            shares=tuple(ring_mul(s, v) for s in self.shares),
            kind=self.kind,
            tasks=self.tasks,
        )

    def mul_public(self, value: float) -> "SharedTensor":
        """Multiply by a public real: encode, multiply, locally truncate.

        The public scalar is encoded at *double* fractional precision
        (up to 26 bits) and truncated accordingly, so scalars like 1/n
        that are not exactly representable at the tensor's precision do
        not introduce a systematic relative bias (important for means,
        variances, and learning rates).  The result is within ~1 ulp of
        the true scaled value w.h.p. (SecureML local truncation; the
        rescale itself is the backend's share-local truncation).
        """
        if self.kind != "fixed":
            raise ProtocolError("mul_public on an indicator; use mul_public_int")
        scalar_bits = min(26, 2 * self.ctx.encoder.frac_bits)
        encoded = int(np.rint(np.float64(value) * 2**scalar_bits)) % 2**64
        shares = self.ctx.backend.truncate_values(
            tuple(ring_mul(s, np.uint64(encoded)) for s in self.shares), scalar_bits
        )
        return SharedTensor(ctx=self.ctx, shares=tuple(shares), kind="fixed", tasks=self.tasks)

    def to_fixed(self) -> "SharedTensor":
        """Lift an indicator (0/1 integer) to fixed-point scale."""
        if self.kind == "fixed":
            return self
        scale = np.uint64(self.ctx.encoder.scale)
        return SharedTensor(
            ctx=self.ctx,
            shares=tuple(ring_mul(s, scale) for s in self.shares),
            kind="fixed",
            tasks=self.tasks,
        )

    # ----------------------------------------------------- shape manipulation

    def transpose(self) -> "SharedTensor":
        """Share-wise matrix transpose (local, data movement only).

        Swaps the last two axes, so a ``(B, m, n)`` stack transposes
        per sample to ``(B, n, m)``.
        """
        if self.ndim < 2:
            raise ShapeError(f"transpose needs at least 2 axes, got shape {self.shape}")
        return replace(
            self,
            shares=tuple(np.swapaxes(s, -1, -2) for s in self.shares),
            transposed=not self.transposed,
        )

    @property
    def T(self) -> "SharedTensor":
        return self.transpose()

    def reshape(self, *shape) -> "SharedTensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        shares = tuple(s.reshape(shape) for s in self.shares)
        if self.transposed:
            return self._new_value(shares)
        return replace(self, shares=shares)

    def _new_value(self, shares) -> "SharedTensor":
        """Locally derived shares of a different value: a fresh identity."""
        return replace(
            self, shares=tuple(shares), static=False, uid=_next_tensor_uid(), transposed=False
        )

    def row_slice(self, lo: int, hi: int, *, pad_to: int | None = None) -> "SharedTensor":
        """Rows [lo, hi) of every share (local; server-side batch slicing).

        Used by the trainer: the dataset is shared once in the offline
        phase and the servers slice batches out of their shares locally.

        ``pad_to`` zero-pads the slice to a fixed row count: every
        server appends the same all-zero rows, which is a valid additive
        sharing of 0 — so a ragged tail batch keeps the full batch shape
        (pooled triplets and label-cached offline material still match)
        and the pad rows decode to 0 for the caller to trim.
        """
        parts = [np.ascontiguousarray(s[lo:hi]) for s in self.shares]
        if pad_to is not None and pad_to > parts[0].shape[0]:
            fill = np.zeros((pad_to - parts[0].shape[0], *parts[0].shape[1:]), dtype=RING_DTYPE)
            parts = [np.concatenate([p, fill], axis=0) for p in parts]
        return self._new_value(parts)

    def sum_rows(self) -> "SharedTensor":
        """Column sums (1, n) — linear, used for bias gradients."""
        from repro.fixedpoint.ring import ring_sum

        return self._new_value(ring_sum(s, axis=0).reshape(1, -1) for s in self.shares)

    def broadcast_rows(self, n_rows: int) -> "SharedTensor":
        """Tile a (1, n) tensor to (n_rows, n) — for bias addition."""
        if self.shares[0].shape[0] != 1:
            raise ShapeError(f"broadcast_rows needs a (1, n) tensor, got {self.shape}")
        return self._new_value(
            np.ascontiguousarray(np.broadcast_to(s, (n_rows, self.shape[1])))
            for s in self.shares
        )
