"""Beaver multiplication triplets — the offline phase (paper Eqs. 2-3).

The client (trusted dealer, exactly the role the paper gives it) samples
random masks ``U`` (shaped like the left operand) and ``V`` (shaped like
the right operand), computes ``Z = U (*) V`` where ``(*)`` is the product
the online phase will perform (matrix product, elementwise product, or a
convolution realised as a matrix product), and additively shares all
three among the two servers.  The dealer is
:meth:`repro.core.context.SecureContext.gen_matrix_triplet` /
``gen_elementwise_triplet``; this module holds what it hands out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.mpc.shares import SharePair
from repro.util.errors import ProtocolError

# Monotonic identity, one counter for values (tensors), masks and
# triplets: the parties' row tables (repro.core.rows) key what they hold
# by it rather than id(), and a uid is never recycled, so a regenerated
# triplet or an updated value can never be mistaken for the one it
# replaced, and a uid names one thing.
_UIDS = itertools.count(1)


def next_uid() -> int:
    return next(_UIDS)


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
    uid: int = field(default_factory=next_uid)


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
    uid: int = field(default_factory=next_uid, compare=False)
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
    uid: int = field(default_factory=next_uid, compare=False)
    masks: tuple[MaskView, MaskView] | None = field(default=None, repr=False, compare=False)
    _epoch: int | None = field(default=None, repr=False, compare=False)
    _issued: dict = field(default_factory=dict, repr=False, compare=False)
