"""Validation helpers producing actionable error messages.

These are deliberately cheap (O(1) checks on ``.shape`` / scalars) so they
can sit on hot paths without showing up in profiles; anything O(n) belongs
in the caller behind a debug flag.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.util.errors import ConfigError, ShapeError


def check_matrix(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Require ``arr`` to be a 2-D ndarray; return it unchanged.

    Raises :class:`ShapeError` naming the offending argument otherwise.
    """
    if not isinstance(arr, np.ndarray):
        raise ShapeError(f"{name} must be a numpy.ndarray, got {type(arr).__name__}")
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim} with shape {arr.shape}")
    return arr


def matmul_shapes_compatible(shape_a, shape_b) -> bool:
    """Whether ``a @ b`` is a 2-D product or a stack ``(B,m,k) x (B,k,n)``."""
    return (
        len(shape_a) == len(shape_b)
        and len(shape_a) in (2, 3)
        and tuple(shape_a[:-2]) == tuple(shape_b[:-2])
        and shape_a[-1] == shape_b[-2]
    )


def check_matmul_compatible(
    a: np.ndarray, b: np.ndarray, name_a: str = "a", name_b: str = "b"
) -> None:
    """Require ``a @ b`` to be a 2-D product or an equal-depth stack."""
    if not matmul_shapes_compatible(a.shape, b.shape):
        raise ShapeError(
            f"matmul shape mismatch: {name_a} is {a.shape}, {name_b} is {b.shape}; "
            f"need (m, k) x (k, n) or (B, m, k) x (B, k, n)"
        )


def gemm_dims(shape_a, shape_b) -> tuple[int, int, int, int]:
    """``(batch, m, k, n)`` of ``a @ b``: a 2-D product is a stack of one."""
    *stack, m, k = shape_a
    return math.prod(stack), m, k, shape_b[-1]


def check_probability(value: float, name: str) -> float:
    """Require a scalar in the closed interval [0, 1]."""
    if not isinstance(value, numbers.Real) or not 0.0 <= float(value) <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)
