"""Exception hierarchy for the repro framework.

All framework-raised exceptions derive from :class:`ReproError` so callers
can catch everything the library raises with a single except clause while
still being able to discriminate failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro framework."""


class ShapeError(ReproError, ValueError):
    """An array had an incompatible shape or dimensionality."""


class ProtocolError(ReproError, RuntimeError):
    """A two-party-computation protocol invariant was violated.

    Raised when messages arrive out of order, a triplet is reused, shares
    from mismatched sharings are combined, or a party attempts a step whose
    prerequisites have not run.
    """


class DeviceError(ReproError, RuntimeError):
    """A simulated-GPU operation was invalid.

    Examples: operating on a freed buffer, launching a kernel on buffers
    that live on a different device, exceeding device memory.
    """


class TransportError(ReproError, RuntimeError):
    """Inter-party message delivery failed or was misused."""


class ConfigError(ReproError, ValueError):
    """A configuration value was out of range or inconsistent."""


class EncodingError(ReproError, ValueError):
    """A real value has no fixed-point encoding in the ring.

    Raised for NaN, ±inf, and magnitudes at or beyond ``2^(63 - f)``,
    which would otherwise wrap or turn into ``INT64_MIN`` silently.
    """


class ServeError(ReproError, RuntimeError):
    """The serving layer rejected or failed a request."""

    #: Whether resubmitting the same request later can succeed.
    retryable = False


class QueueFullError(ServeError):
    """Admission control rejected a request: the queue is at capacity.

    Retryable backpressure — nothing was enqueued and no offline
    material was consumed, so the client should back off and resubmit.
    """

    retryable = True


class AuditError(ReproError, RuntimeError):
    """The conformance/audit harness found or hit a problem.

    Raised when a wire-view audit exceeds the chi-square ceiling, a
    recorder is misused, or a transcript cannot be loaded.
    """


class TranscriptMismatch(AuditError):
    """A replayed session's transcript diverged from the recording.

    The replay oracle's failure mode: some refactor changed the
    protocol's wire behaviour (message order, sizes, bytes, or timing).
    """
