"""Validation helpers producing actionable error messages.

These are deliberately cheap (O(1) checks on ``.shape`` / scalars) so they
can sit on hot paths without showing up in profiles; anything O(n) belongs
in the caller behind a debug flag.
"""

from __future__ import annotations

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


def check_same_shape(a: np.ndarray, b: np.ndarray, name_a: str = "a", name_b: str = "b") -> None:
    """Require two arrays to have identical shapes."""
    if a.shape != b.shape:
        raise ShapeError(
            f"{name_a} and {name_b} must have the same shape; got {a.shape} vs {b.shape}"
        )


def check_matmul_compatible(
    a: np.ndarray, b: np.ndarray, name_a: str = "a", name_b: str = "b"
) -> None:
    """Require ``a @ b`` to be well-defined for 2-D operands."""
    check_matrix(a, name_a)
    check_matrix(b, name_b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul shape mismatch: {name_a} is {a.shape}, {name_b} is {b.shape}; "
            f"inner dimensions {a.shape[1]} != {b.shape[0]}"
        )


def check_stacked_matmul_compatible(
    a: np.ndarray, b: np.ndarray, name_a: str = "a", name_b: str = "b"
) -> None:
    """Require ``a[i] @ b[i]`` to be well-defined for 3-D stacks of equal depth."""
    for arr, name in ((a, name_a), (b, name_b)):
        if arr.ndim != 3:
            raise ShapeError(
                f"{name} must be a 3-D stack, got ndim={arr.ndim} with shape {arr.shape}"
            )
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(
            f"stacked matmul shape mismatch: {name_a} is {a.shape}, {name_b} is {b.shape}; "
            f"need (B, m, k) x (B, k, n)"
        )


def matmul_shapes_compatible(shape_a, shape_b) -> bool:
    """Whether ``a @ b`` is a 2-D product or a stack ``(B,m,k) x (B,k,n)``."""
    return (
        len(shape_a) == len(shape_b)
        and len(shape_a) in (2, 3)
        and tuple(shape_a[:-2]) == tuple(shape_b[:-2])
        and shape_a[-1] == shape_b[-2]
    )


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Require a scalar to be positive (or non-negative when strict=False)."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {type(value).__name__}")
    if strict and not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Require a scalar in the closed interval [0, 1]."""
    if not isinstance(value, numbers.Real) or not 0.0 <= float(value) <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)
