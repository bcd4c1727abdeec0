"""Beaver multiplication triplets — the offline phase (paper Eqs. 2-3).

The client (trusted dealer, exactly the role the paper gives it) samples
random masks ``U`` (shaped like the left operand) and ``V`` (shaped like
the right operand), computes ``Z = U (*) V`` where ``(*)`` is the product
the online phase will perform (matrix product, elementwise product, or a
convolution realised as a matrix product), and additively shares all
three among the two servers.

``Z = U x V`` is the dominant cost of the offline phase (paper Section
4.2 measures it above 90%); the dealer therefore accepts a ``matmul``
callable so the framework can route that one product through the
simulated GPU while leaving the cheap sampling on the CPU — the paper's
offline acceleration design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.fixedpoint.ring import RING_DTYPE, ring_matmul, ring_matmul_batched, ring_mul
from repro.mpc.prandom import ThreadSafeGeneratorPool, parallel_uniform_ring
from repro.mpc.shares import SharePair, share_secret
from repro.telemetry.registry import MetricRegistry
from repro.util.errors import ProtocolError, ShapeError
from repro.util.validation import matmul_shapes_compatible

# Monotonic identity for dealer triplets and masks.  Caches that stage
# triplet material on devices, and the context's mask table, key their
# entries by this uid rather than id(): a uid is never recycled, so a
# regenerated triplet can never be mistaken for the object it replaced.
_TRIPLET_UIDS = itertools.count(1)


def _next_triplet_uid() -> int:
    return next(_TRIPLET_UIDS)


@dataclass(eq=False)
class BeaverMask:
    """One dealer-drawn random array, held by the servers a share each.

    A mask belongs to a *value*, not to an op stream: ``pair`` is laid
    out like the base (untransposed) layout of the value it was drawn
    for, and every stream that multiplies that value is dealt on it
    (:class:`MaskView`).  ``owner`` is the ``(label, side)`` it was
    drawn for; ``shared`` turns true when a second stream side is dealt
    on it — only then do the servers keep what it opened for the rest
    of the online step.
    """

    pair: SharePair
    owner: tuple[str, str]
    shared: bool = False
    uid: int = field(default_factory=_next_triplet_uid)


def to_base_layout(array: np.ndarray, transposed: bool) -> np.ndarray:
    """An operand-layout array in its value's base (untransposed) layout."""
    return np.swapaxes(array, -1, -2) if transposed else array


def from_base_layout(base: np.ndarray, shape: tuple[int, ...], transposed: bool) -> np.ndarray:
    """A base-layout array as an operand of ``shape`` sees it: reshaped,
    and for a transposed operand transposed."""
    if not transposed:
        return base.reshape(shape)
    return np.swapaxes(base.reshape(*shape[:-2], shape[-1], shape[-2]), -1, -2)


@dataclass(frozen=True)
class MaskView:
    """How one triplet side reads a :class:`BeaverMask`: reshaped to the
    operand's shape and, for a transposed operand, transposed."""

    mask: BeaverMask
    transposed: bool = False

    @classmethod
    def over(cls, pair: SharePair, owner: tuple[str, str], transposed: bool) -> "MaskView":
        """A new mask whose view in this layout is ``pair`` itself."""
        base = SharePair(
            to_base_layout(pair.share0, transposed), to_base_layout(pair.share1, transposed)
        )
        return cls(BeaverMask(base, owner), transposed)

    def pair(self, shape: tuple[int, ...]) -> SharePair:
        """The servers' shares of the mask, as this triplet side uses them."""
        held = self.mask.pair
        return SharePair(
            from_base_layout(held.share0, shape, self.transposed),
            from_base_layout(held.share1, shape, self.transposed),
        )


@dataclass
class TripletShare:
    """One server's share of a Beaver triplet: (U_i, V_i, Z_i)."""

    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    party_id: int
    consumed: bool = False
    label: str = ""  # op stream this share was issued to (diagnostics)
    backend: str = "beaver2pc"  # protocol backend that owns the material

    def mark_consumed(self) -> None:
        """Flag this share as used; reuse is a protocol violation."""
        if self.consumed:
            if self.label:
                raise ProtocolError(
                    f"[{self.backend}] Beaver triplet for op stream '{self.label}' "
                    f"consumed twice in one batch; each op stream may use its cached "
                    f"triplet once per online step"
                )
            raise ProtocolError(
                f"[{self.backend}] Beaver triplet share reused; "
                f"each triplet is single-use"
            )
        self.consumed = True


class _EpochShareMixin:
    """Per-batch share bookkeeping shared by the two triplet kinds.

    ``begin_use(epoch, label)`` is called by the context when an op
    stream fetches its cached triplet.  Within one online step (same
    epoch) repeated ``share_for`` calls hand back the *same*
    :class:`TripletShare` objects, so a second op consuming the stream's
    material in the same batch trips ``mark_consumed`` with a labelled
    error instead of silently reusing masks.  With no epoch tracking
    (standalone use, ``fresh_triplets``) every call issues fresh shares,
    the historical behaviour.
    """

    def begin_use(self, epoch: int | None, label: str | None = None) -> None:
        if label:
            self.label = label
        if epoch is None or epoch != self._epoch:
            self._epoch = epoch
            self._issued.clear()

    def share_for(self, party_id: int) -> TripletShare:
        """Extract the share bundle destined for one server."""
        share = self._issued.get(party_id)
        if share is None:
            share = TripletShare(
                u=self.u[party_id],
                v=self.v[party_id],
                z=self.z[party_id],
                party_id=party_id,
                label=self.label or "",
                backend=getattr(self, "backend", "beaver2pc"),
            )
            if self._epoch is not None:
                self._issued[party_id] = share
        return share


@dataclass
class MatrixTriplet(_EpochShareMixin):
    """Dealer-side triplet for a matrix product (m,k) x (k,n), or a
    stack (B,m,k) x (B,k,n) of them."""

    u: SharePair
    v: SharePair
    z: SharePair
    shape_a: tuple[int, ...]
    shape_b: tuple[int, ...]
    label: str | None = None
    backend: str = "beaver2pc"
    uid: int = field(default_factory=_next_triplet_uid, compare=False)
    masks: tuple[MaskView, MaskView] | None = field(default=None, repr=False, compare=False)
    _epoch: int | None = field(default=None, repr=False, compare=False)
    _issued: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class ElementwiseTriplet(_EpochShareMixin):
    """Dealer-side triplet for an elementwise (Hadamard) product."""

    u: SharePair
    v: SharePair
    z: SharePair
    shape: tuple[int, ...]
    label: str | None = None
    backend: str = "beaver2pc"
    uid: int = field(default_factory=_next_triplet_uid, compare=False)
    masks: tuple[MaskView, MaskView] | None = field(default=None, repr=False, compare=False)
    _epoch: int | None = field(default=None, repr=False, compare=False)
    _issued: dict = field(default_factory=dict, repr=False, compare=False)


class TripletDealer:
    """Client-side triplet factory (the offline phase).

    Parameters
    ----------
    rng:
        Generator used for the share-splitting randomness.
    pool:
        Optional :class:`ThreadSafeGeneratorPool` for parallel mask
        sampling (Section 5.1); falls back to ``rng`` when omitted.
    matmul:
        The ring matmul used to form ``Z = U @ V``; inject the simulated
        GPU's GEMM here to reproduce the paper's offline acceleration.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` whose registry
        receives ``mpc.triplets_generated{kind,shape,source="dealer"}``;
        :attr:`triplets_issued` / :attr:`mask_bytes_generated` stay
        available as thin views.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        pool: ThreadSafeGeneratorPool | None = None,
        matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] = ring_matmul,
        telemetry=None,
    ):
        self._rng = rng
        self._pool = pool
        self._matmul = matmul
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        self._generated = registry.counter(
            "mpc.triplets_generated", "Beaver triplets produced offline, by kind and shape"
        )
        self._mask_bytes = registry.counter(
            "mpc.mask_bytes_generated", "bytes of random mask material sampled"
        )

    @property
    def triplets_issued(self) -> int:
        return int(self._generated.value(source="dealer"))

    @property
    def mask_bytes_generated(self) -> int:
        return int(self._mask_bytes.value(source="dealer"))

    def _uniform(self, shape: tuple[int, ...]) -> np.ndarray:
        self._mask_bytes.inc(int(np.prod(shape)) * 8, source="dealer")
        if self._pool is not None and len(shape) >= 2:
            return parallel_uniform_ring(shape, self._pool)
        return self._rng.integers(0, 2**64, size=shape, dtype=np.uint64)

    def matrix_triplet(
        self, shape_a: tuple[int, ...], shape_b: tuple[int, ...]
    ) -> MatrixTriplet:
        """Generate one triplet for a product of the given operand shapes.

        ``(m,k) x (k,n)``, or a stack ``(B,m,k) x (B,k,n)`` whose ``Z``
        is the ``B`` per-sample products (always the host's batched ring
        kernel; the injected ``matmul`` is a 2-D product).
        """
        if not matmul_shapes_compatible(shape_a, shape_b):
            raise ShapeError(
                f"triplet operand shapes incompatible for matmul: {shape_a} x {shape_b}"
            )
        u = self._uniform(shape_a)
        v = self._uniform(shape_b)
        z = self._matmul(u, v) if u.ndim == 2 else ring_matmul_batched(u, v)
        self._generated.inc(
            1, kind="matrix", shape=f"{tuple(shape_a)}x{tuple(shape_b)}", source="dealer"
        )
        return MatrixTriplet(
            u=share_secret(u, self._rng),
            v=share_secret(v, self._rng),
            z=share_secret(z, self._rng),
            shape_a=tuple(shape_a),
            shape_b=tuple(shape_b),
        )

    def elementwise_triplet(self, shape: tuple[int, ...]) -> ElementwiseTriplet:
        """Generate one triplet for an elementwise product of ``shape``."""
        u = self._uniform(tuple(shape))
        v = self._uniform(tuple(shape))
        z = ring_mul(u, v)
        self._generated.inc(1, kind="elementwise", shape=str(tuple(shape)), source="dealer")
        return ElementwiseTriplet(
            u=share_secret(u, self._rng),
            v=share_secret(v, self._rng),
            z=share_secret(z, self._rng),
            shape=tuple(shape),
        )
