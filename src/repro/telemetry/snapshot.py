"""Immutable point-in-time view of a :class:`~repro.telemetry.Telemetry`.

A snapshot is what the evaluation reads: benchmarks take one before and
one after an experiment window and *diff* them, exactly the pattern
:meth:`SecureContext.mark` / :meth:`since` established — ``PhaseMark``
is now a thin special case of this.

Diff semantics:

* counters and histogram counts/sums subtract series-wise;
* gauges subtract (they carry clock readings, where the difference is
  the phase delta); histogram min/max keep the newer window's values;
* spans keep only those recorded after the older snapshot.
"""

from __future__ import annotations

from dataclasses import replace

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    LabelKey,
    _matches,
    label_key,
)
from repro.telemetry.spans import SpanRecord


class TelemetrySnapshot:
    """Queryable frozen copy of every metric series plus finished spans."""

    def __init__(
        self,
        counters: dict[str, dict[LabelKey, float]],
        gauges: dict[str, dict[LabelKey, float]],
        histograms: dict[str, dict[LabelKey, HistogramData]],
        spans: list[SpanRecord],
    ):
        self._counters = counters
        self._gauges = gauges
        self._histograms = histograms
        self._spans = spans

    @classmethod
    def capture(cls, registry, span_log) -> "TelemetrySnapshot":
        counters: dict[str, dict[LabelKey, float]] = {}
        gauges: dict[str, dict[LabelKey, float]] = {}
        histograms: dict[str, dict[LabelKey, HistogramData]] = {}
        for name, metric in registry.metrics().items():
            if isinstance(metric, Counter):
                counters[name] = metric.series()
            elif isinstance(metric, Gauge):
                gauges[name] = metric.series()
            elif isinstance(metric, Histogram):
                histograms[name] = {k: replace(d) for k, d in metric.series().items()}
        return cls(counters, gauges, histograms, list(span_log.finished()))

    # -- queries ---------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        query = label_key(labels)
        return sum(
            v for k, v in self._counters.get(name, {}).items() if _matches(k, query)
        )

    def gauge(self, name: str, default: float = 0.0, **labels) -> float:
        query = label_key(labels)
        matched = [v for k, v in self._gauges.get(name, {}).items() if _matches(k, query)]
        return matched[0] if matched else default

    def histogram(self, name: str, **labels) -> HistogramData:
        query = label_key(labels)
        series = [
            d for k, d in self._histograms.get(name, {}).items() if _matches(k, query)
        ]
        if not series:
            return HistogramData()
        merged = series[0]
        for d in series[1:]:
            merged = merged.merge(d)
        return merged

    def series(self, name: str) -> dict[LabelKey, object]:
        """Every series of one metric, keyed by its canonical label key."""
        for store in (self._counters, self._gauges, self._histograms):
            if name in store:
                return dict(store[name])
        return {}

    def label_values(self, name: str, label: str) -> list[str]:
        """Distinct values one label takes across a metric's series."""
        values = {
            dict(key).get(label)
            for key in self.series(name)
            if dict(key).get(label) is not None
        }
        return sorted(values)

    def spans(self, prefix: str | None = None) -> list[SpanRecord]:
        return [s for s in self._spans if prefix is None or s.name.startswith(prefix)]

    # -- diff ------------------------------------------------------------------

    def diff(self, older: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """This snapshot minus an earlier one: one window's activity."""
        counters = {
            name: {
                key: value - older._counters.get(name, {}).get(key, 0)
                for key, value in series.items()
            }
            for name, series in self._counters.items()
        }
        gauges = {
            name: {
                key: value - older._gauges.get(name, {}).get(key, 0.0)
                for key, value in series.items()
            }
            for name, series in self._gauges.items()
        }
        histograms = {}
        for name, series in self._histograms.items():
            out = {}
            for key, data in series.items():
                prev = older._histograms.get(name, {}).get(key)
                if prev is None:
                    out[key] = replace(data)
                else:
                    out[key] = HistogramData(
                        count=data.count - prev.count,
                        total=data.total - prev.total,
                        min=data.min,
                        max=data.max,
                        bounds=data.bounds,
                        bucket_counts=tuple(
                            a - b for a, b in zip(data.bucket_counts, prev.bucket_counts)
                        ),
                    )
            histograms[name] = out
        seen = {s.index for s in older._spans}
        spans = [s for s in self._spans if s.index not in seen]
        return TelemetrySnapshot(counters, gauges, histograms, spans)
