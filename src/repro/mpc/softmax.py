"""Secure row-wise softmax from the backend's multiply/compare primitives.

Morse-STF's recipe (PAPERS.md): a limit-style exponential approximation
plus secure normalization, composed entirely from ops every
:class:`~repro.protocols.ProtocolBackend` already provides — so one
generic protocol serves ``beaver2pc`` and ``rep3`` (and any third-party
registration) behind the registry.  For a shared logit matrix ``X`` of
shape ``(b, d)`` the pipeline is:

1. **row max** — a tournament tree of ``ceil(log2 d)`` levels; each level
   compares column pairs (``bit = [l - r >= 0]``) and selects
   ``max = bit * (l - r) + r``.  Fixed x indicator products carry single
   scale, so every level is *exact*: the result is bit-for-bit one of
   the row's entries.
2. **shift + clamp** — ``z = x - rowmax`` (local), then ``z`` is clamped
   to ``[-C, 0]`` with one more compare/select (``C`` =
   :data:`SOFTMAX_CLAMP`).  True softmax weight of a clamped entry is
   below ``e^-C``, so the clamp costs at most ``e^-C`` per entry.
3. **exp by squaring** — ``exp(z) ~= (1 + u + u^2/2)^(2^m)`` with
   ``u = z / 2^m`` and ``m`` = :data:`SOFTMAX_SQUARINGS` secure
   squarings (one Hadamard for ``u^2``, then ``m`` squaring Hadamards,
   each with one truncation).  The degree-2 Taylor base keeps the
   squaring chain short: truncation noise injected at squaring ``i`` is
   amplified by at most ``2^(m-i)``, so a small ``m`` bounds the
   fixed-point error, while the base's cubic remainder keeps the
   analytic error ``<= max_z e^z |z|^3 / (6 * 4^m) <= 0.23 / 4^m`` on
   ``[-C, 0]`` (a plain ``(1 + z/2^r)^(2^r)`` limit form would need
   ``r = 10`` squarings for the same analytic error and amplify
   truncation noise ~1000x).
4. **row sum** — local (transpose + column sums); ``s`` lands in
   ``[~1, d]`` because the max entry contributes exactly 1.
5. **reciprocal** — Newton-Raphson ``y <- y (2 - s y)`` seeded with the
   public midpoint ``y0 = 2 / (d + 1)``, which guarantees
   ``|1 - s y0| <= (d-1)/(d+1) < 1`` and hence quadratic convergence;
   the iteration count is derived from that public bound
   (:func:`newton_iterations`).  The first step is a public-scalar
   multiply; each later step is two elementwise triplets.
6. **normalize** — one final Hadamard ``softmax = exp * recip``.

Everything interactive is an elementwise-triplet or comparison stream,
each dealt per op on first use like any other.

:func:`softmax_reference` mirrors the identical composition in float64.
The plain twins use it, so the conformance sweep measures *fixed-point*
error only; the analytic approximation-vs-true-softmax bound is
:func:`softmax_error_bound`, asserted by the property tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import ops
from repro.core.tensor import SharedTensor
from repro.util.errors import ProtocolError, ShapeError

__all__ = [
    "SOFTMAX_CLAMP",
    "SOFTMAX_SQUARINGS",
    "newton_iterations",
    "softmax_error_bound",
    "softmax_protocol",
    "softmax_reference",
]

#: Logits more than this far below their row max are clamped; the true
#: softmax weight of such an entry is below e^-8 ~= 3.4e-4.
SOFTMAX_CLAMP = 8.0

#: m in exp(z) ~= (1 + u + u^2/2)^(2^m), u = z/2^m.  2^m = 32 keeps the
#: Taylor remainder under 2.3e-4 on [-SOFTMAX_CLAMP, 0] while capping
#: squaring-chain noise amplification at 2^m.
SOFTMAX_SQUARINGS = 5


def newton_iterations(d: int, frac_bits: int) -> int:
    """Newton steps needed for 1/s, s in [1, d], at 2^-frac_bits error.

    With the public seed ``y0 = 2/(d+1)`` the relative error starts at
    ``q = (d-1)/(d+1) < 1`` and squares every step; we iterate until
    ``q^(2^k) <= 2^-frac_bits``.  Public arithmetic on public bounds —
    the iteration count leaks only the (public) row width.
    """
    if d < 1:
        raise ShapeError(f"softmax row width must be >= 1, got {d}")
    q = (d - 1) / (d + 1)
    if q <= 0.0:
        return 1
    ratio = math.log(2.0**-frac_bits) / math.log(q)
    return max(1, math.ceil(math.log2(ratio)))


def _local(x: SharedTensor, shares, *, kind=None) -> SharedTensor:
    """A new tensor from locally transformed shares (tasks carried over)."""
    return SharedTensor(
        ctx=x.ctx,
        shares=tuple(np.ascontiguousarray(s) for s in shares),
        kind=kind or x.kind,
        tasks=x.tasks,
    )


def _col_slice(x: SharedTensor, lo: int, hi: int) -> SharedTensor:
    return _local(x, (s[:, lo:hi] for s in x.shares))


def _concat_cols(a: SharedTensor, b: SharedTensor) -> SharedTensor:
    out = _local(a, (np.concatenate([sa, sb], axis=1) for sa, sb in zip(a.shares, b.shares)))
    tasks = []
    for ta, tb in zip(a.tasks, b.tasks):
        deps = [t for t in (ta, tb) if t is not None]
        if len(deps) == 2:
            tasks.append(a.ctx.online_clock.join(deps))
        else:
            tasks.append(deps[0] if deps else None)
    out.tasks = tuple(tasks)
    return out


def _sum_cols(x: SharedTensor) -> SharedTensor:
    """Row sums (b, 1) — local linear, like sum_rows but along axis 1."""
    return x.T.sum_rows().T


def _bcast_cols(x: SharedTensor, d: int) -> SharedTensor:
    """Tile a (b, 1) tensor to (b, d) — local linear."""
    return x.T.broadcast_rows(d).T


def _row_max(x: SharedTensor, *, label: str) -> SharedTensor:
    """Exact secure row max via a pairwise tournament (see module doc)."""
    work = x
    level = 0
    while work.shape[1] > 1:
        w = work.shape[1]
        h = w // 2
        left = _col_slice(work, 0, h)
        right = _col_slice(work, h, 2 * h)
        diff = left - right
        bit = ops.secure_compare_const(diff, 0.0, label=f"{label}/max{level}/ge")
        # fixed x indicator keeps single scale: the select is exact.
        best = ops.secure_elementwise_mul(diff, bit, label=f"{label}/max{level}/sel") + right
        work = _concat_cols(best, _col_slice(work, 2 * h, w)) if w > 2 * h else best
        level += 1
    return work


def softmax_protocol(ctx, x: SharedTensor, *, label: str) -> SharedTensor:
    """Row-wise softmax of a shared (b, d) fixed-point matrix."""
    if x.ndim != 2:
        raise ShapeError(f"[{label}] softmax expects a 2-D tensor, got {x.shape}")
    if x.kind != "fixed":
        raise ProtocolError(f"[{label}] softmax expects a fixed-point tensor")
    b, d = x.shape
    frac = ctx.encoder.frac_bits
    r = SOFTMAX_SQUARINGS
    c = SOFTMAX_CLAMP

    # 1-2. shift by the exact row max, clamp to [-C, 0].
    z = x - _bcast_cols(_row_max(x, label=label), d)
    keep = ops.secure_compare_const(z, -c, label=f"{label}/clamp/ge")
    z = ops.secure_elementwise_mul(
        z.add_public(c), keep, label=f"{label}/clamp/sel"
    ).add_public(-c)

    # 3. exp(z) ~= (1 + u + u^2/2)^(2^m) by m secure squarings.
    u = z.mul_public(1.0 / 2**r)
    u2 = ops.secure_elementwise_mul(u, u, label=f"{label}/exp/base")
    p = (u + u2.mul_public(0.5)).add_public(1.0)
    for i in range(r):
        p = ops.secure_elementwise_mul(p, p, label=f"{label}/exp{i}")

    # 4-5. row sums and their Newton reciprocal from the public seed.
    s = _sum_cols(p)
    y0 = 2.0 / (d + 1)
    y = s.mul_public(-y0 * y0).add_public(2.0 * y0)
    for i in range(1, newton_iterations(d, frac)):
        t = ops.secure_elementwise_mul(s, y, label=f"{label}/recip{i}a")
        y = ops.secure_elementwise_mul(y, (-t).add_public(2.0), label=f"{label}/recip{i}b")

    # 6. normalize.
    return ops.secure_elementwise_mul(p, _bcast_cols(y, d), label=f"{label}/norm")


def softmax_reference(logits: np.ndarray, *, frac_bits: int = 13) -> np.ndarray:
    """The protocol's composition in exact float64 (the plain twin).

    Same clamp, same limit-form exponential, same Newton reciprocal —
    so secure-vs-reference differences are pure fixed-point noise, which
    is what the conformance sweep holds to tolerance.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"softmax_reference expects 2-D logits, got {z.shape}")
    d = z.shape[1]
    z = z - z.max(axis=1, keepdims=True)
    z = np.maximum(z, -SOFTMAX_CLAMP)
    u = z / 2**SOFTMAX_SQUARINGS
    p = 1.0 + u + 0.5 * u * u
    for _ in range(SOFTMAX_SQUARINGS):
        p = p * p
    s = p.sum(axis=1, keepdims=True)
    y0 = 2.0 / (d + 1)
    y = y0 * (2.0 - s * y0)
    for _ in range(1, newton_iterations(d, frac_bits)):
        y = y * (2.0 - s * y)
    return p * y


def softmax_error_bound(d: int, frac_bits: int) -> float:
    """Documented max-abs-error bound vs *true* softmax (see DESIGN §7).

    Analytic part: the Taylor-base exp error (``<= 0.23 / 4^m`` on the
    clamped range) plus the clamp itself (``<= e^-C`` per entry), each
    amplified at most ``d + 1`` times through the normalization.
    Fixed-point part: truncation injects ~``2^-frac_bits`` per
    interactive multiply; noise entering the squaring chain is amplified
    up to ``2^m`` by the remaining squarings, so the chain contributes
    ``<= 2^(m+1)`` ulps and the Newton/normalize tail a few more — the
    factor 4 on top is safety margin for the signed-noise worst case.
    """
    m = SOFTMAX_SQUARINGS
    analytic = (d + 1) * (0.23 / 4**m + math.exp(-SOFTMAX_CLAMP))
    ulps = 2.0 ** (m + 1) + 2 * newton_iterations(d, frac_bits) + 6
    fixed_point = 4.0 * ulps * 2.0**-frac_bits
    return analytic + fixed_point
