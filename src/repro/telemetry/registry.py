"""Label-aware metric primitives: counters, gauges, histograms.

The registry is the single source of truth for every quantitative fact
the framework records about itself — bytes on a link, kernel seconds by
kind, triplets issued per shape.  Pre-existing ad-hoc counters
(``Channel.bytes_sent``, ``CompressionStats``, the device counters) are
kept API-compatible as *thin views* over registry series, so the paper's
evaluation machinery and this subsystem can never disagree.

Model (a deliberately small subset of the Prometheus data model):

* a **metric** has a name, a kind and a set of **series**;
* a **series** is one labelled instance of the metric, keyed by its
  sorted ``(label, value)`` pairs;
* :class:`Counter` series only increase (reset is explicit);
* :class:`Gauge` series hold the last value set;
* :class:`Histogram` series accumulate count/sum/min/max plus
  log-spaced bucket counts, sized for simulated seconds (1 ns .. 10 s).

Queries accept *partial* label sets: ``counter.value(channel="a<->b")``
sums every series whose labels include that pair — which is what makes
per-direction accounting roll up into per-channel totals for free.

Recording resolves a label set to its series key.  ``metric.labels(...)``
does that once and returns a *bound series* (:class:`BoundCounter`,
:class:`BoundGauge`, :class:`BoundHistogram`) whose ``inc`` / ``set`` /
``observe`` take no labels; ``metric.inc(..., **labels)`` binds on every
call.  Both write the same series.  Counters and histograms refuse
non-finite values (and counters negative ones) with a
:class:`~repro.util.errors.ConfigError` naming the metric.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.util.errors import ConfigError

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds: log-spaced for durations that
#: range from nanosecond kernel launches to multi-second phases.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(10.0**e for e in range(-9, 2)) + (math.inf,)


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _matches(series_key: LabelKey, query: LabelKey) -> bool:
    """True when every (label, value) pair of ``query`` appears in the key."""
    pairs = dict(series_key)
    return all(pairs.get(k) == v for k, v in query)


class _Metric:
    """Shared plumbing: named, labelled series storage."""

    kind = "metric"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description

    def _select(self, store: dict, labels: dict) -> list:
        query = label_key(labels)
        return [v for key, v in store.items() if _matches(key, query)]


class Counter(_Metric):
    """Monotonically increasing series; decrements are rejected."""

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[LabelKey, float] = {}

    def labels(self, **labels) -> "BoundCounter":
        """The series for ``labels``, resolved once: its ``inc`` takes no labels."""
        return BoundCounter(self, label_key(labels))

    def inc(self, amount: float = 1, **labels) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        """Sum of every series matching the (possibly partial) labels."""
        return sum(self._select(self._series, labels))

    def series(self) -> dict[LabelKey, float]:
        return dict(self._series)


class BoundCounter:
    """One counter series with its label key resolved at bind time.

    The series itself lives in the counter, created on the first
    ``inc``, so labelled and bound increments add up in one place and a
    ``Counter.reset`` restarts a bound series from zero.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelKey):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1) -> None:
        if not 0 <= amount < math.inf:  # also false for nan
            kind = "negative" if amount < 0 else "non-finite"
            raise ConfigError(f"counter {self._counter.name}: {kind} increment {amount}")
        series = self._counter._series
        series[self._key] = series.get(self._key, 0) + amount

    def value(self) -> float:
        return self._counter._series.get(self._key, 0)


class Gauge(_Metric):
    """Last-value-wins series (e.g. the current phase clock reading)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[LabelKey, float] = {}

    def labels(self, **labels) -> "BoundGauge":
        """The series for ``labels``, resolved once: its ``set`` takes no labels."""
        return BoundGauge(self, label_key(labels))

    def set(self, value: float, **labels) -> None:
        self._series[label_key(labels)] = value

    def value(self, default: float = 0.0, **labels) -> float:
        matched = self._select(self._series, labels)
        if not matched:
            return default
        if len(matched) > 1:
            raise ConfigError(
                f"gauge {self.name}: labels {labels} match {len(matched)} series; "
                "narrow the query"
            )
        return matched[0]

    def series(self) -> dict[LabelKey, float]:
        return dict(self._series)


class BoundGauge:
    """One gauge series with its label key resolved at bind time."""

    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: Gauge, key: LabelKey):
        self._gauge = gauge
        self._key = key

    def set(self, value: float) -> None:
        self._gauge._series[self._key] = value


@dataclass
class HistogramData:
    """Accumulated distribution of one histogram series (or a merge)."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.bucket_counts:
            self.bucket_counts = tuple(0 for _ in self.bounds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        """Count ``value`` in the first bucket whose bound is >= it.

        ``bucket_counts`` stays a tuple, replaced rather than mutated, so
        the shallow copies a snapshot takes never move afterwards.
        """
        if not math.isfinite(value):
            raise ConfigError(f"non-finite observation {value}")
        counts = list(self.bucket_counts)
        counts[bisect_left(self.bounds, value)] += 1
        self.bucket_counts = tuple(counts)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style).

        Linearly interpolates within the bucket containing the q-th
        observation; the estimate is clamped to the observed
        ``[min, max]`` so single-bucket distributions don't smear across
        a whole log-spaced decade.  Returns 0.0 for an empty series.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0.0
        prev_bound = 0.0
        for bound, cnt in zip(self.bounds, self.bucket_counts):
            if cnt:
                if cum + cnt >= target:
                    if math.isinf(bound):
                        return self.max
                    frac = (target - cum) / cnt
                    est = prev_bound + frac * (bound - prev_bound)
                    return min(max(est, self.min), self.max)
                cum += cnt
            if not math.isinf(bound):
                prev_bound = bound
        return self.max

    def merge(self, other: "HistogramData") -> "HistogramData":
        if other.bounds != self.bounds:
            raise ConfigError("cannot merge histograms with different bucket bounds")
        return HistogramData(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            bounds=self.bounds,
            bucket_counts=tuple(a + b for a, b in zip(self.bucket_counts, other.bucket_counts)),
        )


class Histogram(_Metric):
    """Distribution metric: kernel durations, queue waits, latencies."""

    kind = "histogram"

    def __init__(
        self, name: str, description: str = "", *, buckets: tuple[float, ...] | None = None
    ):
        super().__init__(name, description)
        bounds = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if bounds != tuple(sorted(bounds)):
            raise ConfigError(f"histogram {name}: bucket bounds must be sorted")
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        self._series: dict[LabelKey, HistogramData] = {}

    def labels(self, **labels) -> "BoundHistogram":
        """The series for ``labels``, resolved once: its ``observe`` takes no labels."""
        return BoundHistogram(self, label_key(labels))

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)

    def data(self, **labels) -> HistogramData:
        """Merged distribution of every series matching the labels."""
        merged = HistogramData(bounds=self.bounds)
        for d in self._select(self._series, labels):
            merged = merged.merge(d)
        return merged

    def quantile(self, q: float, **labels) -> float:
        """Quantile estimate over the matching (merged) series."""
        return self.data(**labels).quantile(q)

    def series(self) -> dict[LabelKey, HistogramData]:
        return dict(self._series)


class BoundHistogram:
    """One histogram series with its label key resolved at bind time."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: LabelKey):
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ConfigError(f"histogram {self._histogram.name}: non-finite observation {value}")
        series = self._histogram._series
        data = series.get(self._key)
        if data is None:
            data = series[self._key] = HistogramData(bounds=self._histogram.bounds)
        data.observe(value)


class SeriesCache(dict):
    """Bound series keyed by a label value only known at run time.

    ``SeriesCache(lambda client: counter.labels(client=client))[c]``
    binds the series for ``c`` on first lookup and is a plain dict
    lookup after that.
    """

    def __init__(self, bind):
        super().__init__()
        self._bind = bind

    def __missing__(self, value):
        series = self[value] = self._bind(value)
        return series


class MetricRegistry:
    """Get-or-create store of metrics; kind conflicts are errors."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        metric = cls(name, description, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self, name: str, description: str = "", *, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, description, buckets=buckets)

    def metrics(self) -> dict[str, _Metric]:
        return dict(self._metrics)
