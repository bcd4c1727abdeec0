"""Interactive secure operations with full offline/online cost accounting.

Each op follows the paper's phase structure:

* **offline** — the client generates the Beaver material for the op's
  stream (charged on the client clock; see
  :meth:`~repro.core.context.SecureContext.get_matrix_triplet`);
* **reconstruct** (online, CPU + network) — the servers form the masked
  differences ``E_i/F_i`` (Eq. 4), exchange them through the
  delta-compression layer (Section 4.4) and combine (Eq. 5);
* **GPU operation** (online) — the Eq. 8 product, scheduled on the GPU
  through pipeline 1 or on the CPU when the profiling-guided placement
  says the workload is too small to amortise PCIe (Section 4.2);
* **truncation** — the rescale of a product of two fixed-point
  operands.  Whether a product is rescaled is decided here, before it
  runs, once for every backend (:func:`_rescales`); the backend's
  product then rescales its own result — ``beaver2pc`` inside the
  product's last pass, ``rep3`` with its truncation protocol
  (:func:`truncate`) after the product.

The functions here are protocol-agnostic entry points: shape/kind
validation plus telemetry, with the actual interactive protocol
dispatched to the context's :class:`~repro.protocols.ProtocolBackend`
(``beaver2pc`` reproduces the paper's 2PC path bit-identically; see
``repro.protocols`` for alternates such as 3-party replicated sharing).

All ops thread :class:`~repro.simgpu.clock.Task` dependencies through
:class:`~repro.core.tensor.SharedTensor.tasks`, which is how pipeline 2
(cross-layer overlap) is expressed; with ``double_pipeline`` off the
context serialises every op behind the previous one instead.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.tensor import SharedTensor, require_same_context
from repro.simgpu.clock import Task
from repro.util.errors import ProtocolError, ShapeError
from repro.util.validation import matmul_shapes_compatible

__all__ = [
    "secure_matmul",
    "backward_products",
    "secure_elementwise_mul",
    "secure_compare_const",
    "secure_softmax",
    "activation",
    "truncate",
]


def _deps(*tasks) -> tuple[Task, ...]:
    return tuple(t for t in tasks if t is not None)


@contextmanager
def _op_scope(ctx, op: str, label: str):
    """Span + per-op roll-up counters around one secure-op invocation.

    ``ops.online_seconds{op}`` attributes the op's *online makespan
    delta* — how far it pushed the online clock — so nested ops (an
    activation's compare + mul) each carry their own share, and an op
    the clock backfilled entirely into idle gaps reads 0.  The
    ``protocol.*`` counters carry the same roll-up labelled by the
    active protocol backend, so mixed-backend fleets stay attributable.
    The context binds the four series on an op's first call
    (``SecureContext.op_series``).
    """
    telemetry = getattr(ctx, "telemetry", None)
    if telemetry is None:
        yield
        return
    series = ctx.op_series[op]
    start = ctx.online_clock.now()
    with telemetry.span(f"op.{label}", clock="online", op=op):
        yield
    delta = ctx.online_clock.now() - start
    series.calls.inc(1)
    series.online_seconds.inc(delta)
    series.backend_calls.inc(1)
    series.backend_online_seconds.inc(delta)


def _chain(ctx, deps: tuple[Task, ...]) -> tuple[Task, ...]:
    """With double_pipeline off, serialise behind the last online op."""
    if ctx.config.double_pipeline:
        return deps
    last = getattr(ctx, "_chain_task", None)
    return _deps(*deps, last)


def _set_chain(ctx, tasks) -> None:
    if not ctx.config.double_pipeline:
        ctx._chain_task = ctx.online_clock.join(list(_deps(*tasks)))


def truncate(x: SharedTensor, *, label: str = "trunc") -> SharedTensor:
    """Rescale of a double-scale product (protocol-dependent)."""
    ctx = x.ctx
    with _op_scope(ctx, "truncate", label):
        return ctx.backend.truncate(ctx, x, label=label)


def _rescales(x: SharedTensor, y: SharedTensor, truncate_result: bool = True) -> bool:
    """Whether the product of ``x`` and ``y`` is rescaled: fixed x fixed
    carries double scale (unless ``truncate_result`` is off), fixed x
    indicator stays at single scale."""
    return truncate_result and x.kind == "fixed" and y.kind == "fixed"


def _product(out: SharedTensor, x: SharedTensor, y: SharedTensor) -> SharedTensor:
    """A product's kind: indicator x indicator is an indicator."""
    if x.kind == "indicator" and y.kind == "indicator":
        out.kind = "indicator"
    return out


def secure_matmul(
    x: SharedTensor,
    y: SharedTensor,
    *,
    label: str = "matmul",
    truncate_result: bool = True,
) -> SharedTensor:
    """Secure matrix product ``x @ y`` (Eqs. 4-8 end to end).

    Both operands are matrices, or both are stacks of equal depth:
    ``(B,m,k) x (B,k,n)`` is ``B`` independent products run as one op —
    one triplet, one exchange round, one placement decision.
    """
    ctx = x.ctx
    require_same_context(x, y, label)
    if not matmul_shapes_compatible(x.shape, y.shape):
        raise ShapeError(
            f"[{ctx.backend.name}:{label}] secure_matmul shapes incompatible: "
            f"{x.shape} x {y.shape}"
        )
    with _op_scope(ctx, "matmul", label):
        rescale = _rescales(x, y, truncate_result)
        return _product(ctx.backend.matmul(ctx, x, y, label=label, rescale=rescale), x, y)


def backward_products(
    weight_grads: list[tuple[SharedTensor, SharedTensor, str]],
    input_grad: tuple[SharedTensor, SharedTensor, str] | None = None,
) -> tuple[list[SharedTensor], SharedTensor | None]:
    """A layer's backward products, critical path first.

    ``weight_grads`` are the ``(x, y, label)`` products only the update
    reads; ``input_grad`` is the one the layer below waits on (None
    where nobody reads it).  It is issued first, so it never queues
    behind a weight gradient, and the weight gradients follow in order.
    Their triplets are dealt before it, as if they ran first
    (:meth:`~repro.core.context.SecureContext.deal_ahead`): every mask,
    share and result is the one weight-gradients-first gives, and only
    the order of the online tasks changes.  Returns the weight gradients
    and the input gradient.
    """
    dx = None
    if input_grad is not None:
        for x, y, label in weight_grads:
            x.ctx.deal_ahead(label, x, y)
        x, y, label = input_grad
        dx = secure_matmul(x, y, label=label)
    return [secure_matmul(x, y, label=label) for x, y, label in weight_grads], dx


def secure_elementwise_mul(
    x: SharedTensor, y: SharedTensor, *, label: str = "hadamard"
) -> SharedTensor:
    """Secure Hadamard product (the CNN's point-to-point multiplications)."""
    ctx = x.ctx
    require_same_context(x, y, label)
    if x.shape != y.shape:
        raise ShapeError(
            f"[{ctx.backend.name}:{label}] elementwise shapes differ: "
            f"{x.shape} vs {y.shape}"
        )
    with _op_scope(ctx, "elementwise_mul", label):
        out = ctx.backend.elementwise_mul(ctx, x, y, label=label, rescale=_rescales(x, y))
        return _product(out, x, y)


def secure_compare_const(
    x: SharedTensor, threshold: float, *, label: str = "cmp"
) -> SharedTensor:
    """Indicator tensor ``[x >= threshold]`` via secure comparison.

    One protocol on every backend: the dealer-assisted GMW comparison
    (:func:`repro.mpc.comparison.secure_ge_const`) on a bundle from
    :meth:`SecureContext.gen_comparison_bundle`; ``rep3`` folds its
    replicated sharing onto two parties first and lifts the result back.
    """
    ctx = x.ctx
    if x.kind != "fixed":
        raise ProtocolError(
            f"[{ctx.backend.name}:{label}] secure_compare_const expects a "
            "fixed-point tensor"
        )
    with _op_scope(ctx, "compare_const", label):
        return ctx.backend.compare_const(ctx, x, threshold, label=label)


def secure_softmax(x: SharedTensor, *, label: str = "softmax") -> SharedTensor:
    """Secure row-wise softmax (the attention workload's nonlinearity).

    Dispatched to the backend's ``softmax`` protocol — by default the
    generic composition in :mod:`repro.mpc.softmax` (tournament row max,
    clamp, exp-by-squaring, Newton normalization), which works on any
    registered substrate.  Rows must be fixed-point; the result is a
    fixed-point tensor of the same shape with entries in [0, 1] summing
    to 1 per row, within the documented tolerance
    (:func:`repro.mpc.softmax.softmax_error_bound`).
    """
    ctx = x.ctx
    if x.ndim != 2:
        raise ShapeError(
            f"[{ctx.backend.name}:{label}] secure_softmax expects a 2-D tensor, "
            f"got {x.shape}"
        )
    if x.kind != "fixed":
        raise ProtocolError(
            f"[{ctx.backend.name}:{label}] secure_softmax expects a fixed-point tensor"
        )
    with _op_scope(ctx, "softmax", label):
        return ctx.backend.softmax(ctx, x, label=label)


def activation(
    x: SharedTensor, kind: str = "relu", *, label: str = "act"
) -> tuple[SharedTensor, SharedTensor]:
    """Secure activation; returns (output, derivative-mask).

    * ``relu`` — ``x * [x >= 0]``; mask is the indicator (Section 4.2
      notes ReLU is used for CNN/MLP);
    * ``piecewise`` — the paper's Eq. 9 (a hard sigmoid): 0 below -1/2,
      ``x + 1/2`` inside, 1 above 1/2; used where an upper-bounded
      activation is required (logistic regression).
    """
    ctx = x.ctx
    with _op_scope(ctx, "activation", label):
        return _activation_body(x, kind, label=label)


def _activation_body(x, kind, *, label: str):
    if kind == "relu":
        mask = secure_compare_const(x, 0.0, label=f"{label}:ge0")
        out = secure_elementwise_mul(x, mask, label=f"{label}:mul")
        return out, mask
    if kind == "piecewise":
        b1 = secure_compare_const(x, -0.5, label=f"{label}:ge-half")
        b2 = secure_compare_const(x, 0.5, label=f"{label}:ge+half")
        inside = b1 - b2  # indicator of the linear segment
        shifted = x.add_public(0.5)
        linear = secure_elementwise_mul(shifted, inside, label=f"{label}:mul")
        out = linear + b2.to_fixed()
        return out, inside
    raise ProtocolError(f"unknown activation kind {kind!r}")
