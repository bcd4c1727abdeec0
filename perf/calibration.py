"""Host-speed calibration: a fixed job timed beside every timed unit.

The host this benchmark was written on is a 2-core shared VM whose
speed moves by 20-40 % in phases of seconds to minutes (a 60 ms
L2-resident dgemm loop ranged 1.0-1.9x its own minimum within one
process).  No estimator over a 10 s window is steady against that, so
the end-to-end host times are *calibrated*: the job below — a third
each of dgemm, memory-bound integer array work and interpreter
dispatch, the three things a unit is made of — runs after every timed
unit, and the run's host seconds (set-up and units) are scaled by

    factor = REFERENCE_S / mean(job time during this run)

i.e. they are seconds on a host that runs the job in ``REFERENCE_S``.
The job imports nothing from ``repro``, so no change to the code under
test can move it.  It is part of the frozen benchmark: do not retune.
"""

from __future__ import annotations

import time

import numpy as np

#: Job time the reported seconds are normalised to (roughly what the job
#: takes on the reference host; the value only sets the scale).
REFERENCE_S = 0.25


class _Registry:
    """The label-keyed counter pattern that dominates dispatch-bound units."""

    def __init__(self):
        self.series: dict[tuple, int] = {}

    def inc(self, amount: int, **labels) -> None:
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        self.series[key] = self.series.get(key, 0) + amount


class Calibration:
    """Runs the calibration job and keeps its times."""

    def __init__(self):
        self._square = np.full((256, 256), 0.5)
        self._words = np.arange(1 << 19, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        self._bits = (np.arange(1 << 22) & 1).astype(np.uint8)
        self._scratch = np.zeros_like(self._bits)
        self.times_s: list[float] = []

    def probe(self) -> float:
        """Time one job; about a third each of the three ingredients."""
        start = time.perf_counter()
        for _ in range(110):  # compute-bound: L2-resident float64 GEMM
            self._square @ self._square
        for shift in (0, 16, 32, 48):  # memory-bound: limb split + bit planes
            for _ in range(4):
                ((self._words >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.float64)
        for _ in range(20):
            np.bitwise_xor(self._bits, self._scratch, out=self._scratch)
            np.bitwise_and(self._scratch, self._bits, out=self._scratch)
        registry = _Registry()  # dispatch-bound: calls, kwargs, tuples, dict updates
        for i in range(45_000):
            registry.inc(1, device="s0", kind=i & 7)
        elapsed = time.perf_counter() - start
        self.times_s.append(elapsed)
        return elapsed

    @property
    def mean_s(self) -> float:
        return sum(self.times_s) / len(self.times_s)

    @property
    def factor(self) -> float:
        """Multiply a raw host time by this to get calibrated seconds."""
        return REFERENCE_S / self.mean_s

    def summary(self) -> dict:
        if not self.times_s:
            return {}
        return {
            "reference_s": REFERENCE_S,
            "factor": self.factor,
            "job_mean_s": self.mean_s,
            "job_s": self.times_s,
        }
