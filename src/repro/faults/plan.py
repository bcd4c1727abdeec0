"""Seeded fault plans: what goes wrong, where, and exactly when.

A :class:`FaultPlan` is declarative and frozen — it carries *rates* for
the memoryless fault kinds (drop / duplicate / corrupt / delay) plus
*scripted* events (party crashes, link partitions) pinned to message or
step indices.  The plan itself never draws randomness; the
:class:`~repro.faults.injector.FaultInjector` derives one RNG per
``(seed, link, message index)`` so the decision stream of one link is
independent of how other links interleave with it.  That per-message
keying is what makes chaos runs bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ConfigError

_PARTIES = ("client", "server0", "server1")


@dataclass(frozen=True)
class PartyCrash:
    """Party ``party`` crashes when the consumer's step counter reaches
    ``at_step``.

    The training and inference loops advance one step per batch.  A
    crashed party stays down until
    :meth:`~repro.faults.injector.FaultInjector.restart` is called.
    """

    party: str
    at_step: int

    def __post_init__(self):
        if self.party not in _PARTIES:
            raise ConfigError(f"unknown crash party {self.party!r}; expected one of {_PARTIES}")
        if self.at_step < 0:
            raise ConfigError(f"crash at_step must be >= 0, got {self.at_step}")


@dataclass(frozen=True)
class LinkPartition:
    """The ``src -> dst`` direction black-holes messages with link index
    in ``[start, stop)``.  A bounded window heals on its own, so a
    partition shorter than the retry budget is recoverable."""

    src: str
    dst: str
    start: int
    stop: int

    def __post_init__(self):
        if self.stop <= self.start:
            raise ConfigError(
                f"partition window must be non-empty: [{self.start}, {self.stop})"
            )
        if self.start < 0:
            raise ConfigError(f"partition start must be >= 0, got {self.start}")

    def covers(self, index: int) -> bool:
        return self.start <= index < self.stop


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the resilient layer tries before assigning blame.

    Timeouts back off exponentially (``base_timeout_s * backoff**k``,
    capped at ``max_backoff_s``) and every wait is charged on the
    simulated clock, so fault recovery is visible in makespans.
    ``restart_penalty_s`` is the simulated reboot time a recovering
    driver charges when it brings a crashed party back.
    """

    max_retries: int = 8
    base_timeout_s: float = 100e-6
    backoff: float = 2.0
    max_backoff_s: float = 10e-3
    restart_penalty_s: float = 5e-3

    def __post_init__(self):
        if self.max_retries < 1:
            raise ConfigError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.base_timeout_s < 0 or self.max_backoff_s < 0 or self.restart_penalty_s < 0:
            raise ConfigError("retry policy timings must be >= 0")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff must be >= 1, got {self.backoff}")

    def timeout_s(self, attempt: int) -> float:
        """Backoff wait before retransmission ``attempt`` (1-based)."""
        return min(self.base_timeout_s * self.backoff ** max(attempt - 1, 0), self.max_backoff_s)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible description of an adversarial network.

    ``drop``/``duplicate``/``corrupt``/``delay`` are per-message
    probabilities (disjoint events; their sum must be <= 1).  ``delay_s``
    is the extra one-way latency a delayed message suffers.  ``crashes``
    and ``partitions`` are scripted events.  ``seed`` keys every random
    decision.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    delay_s: float = 250e-6
    crashes: tuple[PartyCrash, ...] = field(default_factory=tuple)
    partitions: tuple[LinkPartition, ...] = field(default_factory=tuple)

    def __post_init__(self):
        rates = {"drop": self.drop, "duplicate": self.duplicate,
                 "corrupt": self.corrupt, "delay": self.delay}
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} rate out of [0, 1]: {rate}")
        if sum(rates.values()) > 1.0 + 1e-12:
            raise ConfigError(f"fault rates must sum to <= 1, got {sum(rates.values())}")
        if self.delay_s < 0:
            raise ConfigError(f"delay_s must be >= 0, got {self.delay_s}")
        # tuples keep the plan hashable inside the frozen FrameworkConfig
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @property
    def fault_rate(self) -> float:
        return self.drop + self.duplicate + self.corrupt + self.delay

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for name in ("drop", "duplicate", "corrupt", "delay"):
            rate = getattr(self, name)
            if rate:
                parts.append(f"{name}={rate:g}")
        for crash in self.crashes:
            parts.append(f"crash({crash.party}@{crash.at_step})")
        for part in self.partitions:
            parts.append(f"partition({part.src}->{part.dst}[{part.start}:{part.stop}])")
        return "FaultPlan(" + ", ".join(parts) + ")"
