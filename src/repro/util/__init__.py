"""Shared utilities: errors, validation helpers, deterministic seeding.

This package holds the small pieces every substrate leans on so that the
substrates themselves stay focused: a common exception hierarchy, shape and
dtype validation that produces actionable messages, and seed-derivation
helpers so every stochastic component of the framework is reproducible from
a single root seed.
"""

from repro.util.errors import (
    ReproError,
    ShapeError,
    ProtocolError,
    DeviceError,
    TransportError,
    ConfigError,
    AuditError,
    TranscriptMismatch,
)
from repro.util.validation import (
    check_matrix,
    check_matmul_compatible,
    check_probability,
)
from repro.util.seeding import derive_seed, SeedSequenceFactory

__all__ = [
    "ReproError",
    "ShapeError",
    "ProtocolError",
    "DeviceError",
    "TransportError",
    "ConfigError",
    "AuditError",
    "TranscriptMismatch",
    "check_matrix",
    "check_matmul_compatible",
    "check_probability",
    "derive_seed",
    "SeedSequenceFactory",
]
