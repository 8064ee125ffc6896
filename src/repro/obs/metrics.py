"""Metrics: counters, gauges, streaming histograms, and the registry.

Naming conventions (see docs/ARCHITECTURE.md "Observability"):

* metric names are dot-separated lowercase (``transport.bytes_sent``,
  ``route.drops``, ``bus.events``);
* dimensions go in **labels** (``node=...``, ``topic=...``), never baked
  into the name;
* durations are seconds, sizes are bytes.

A :class:`MetricsRegistry` keys instruments by ``(name, labels)``. Getting
an instrument is get-or-create, so call sites never pre-register.

:class:`Histogram` is a fixed-bucket streaming estimator: geometric bucket
bounds, O(1) memory, nearest-rank percentiles read from the bucket upper
edge (clamped to the observed min/max). Good to ~2x relative error at the
default bucket growth, which is what latency dashboards need; callers
wanting exact percentiles keep their raw samples and read them through
:class:`Summary` / :func:`nearest_rank`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down; remembers only the latest."""

    __slots__ = ("name", "labels", "value", "updates")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)


#: Default histogram bounds: geometric, 1 µs .. ~134 s (factor 2 per bucket).
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(28))


class Histogram:
    """Fixed-bucket streaming distribution with percentile estimates."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "total", "minimum", "maximum")

    def __init__(self, name: str, labels: LabelKey,
                 bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS
        )
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bucket bounds must be sorted")
        # One overflow bucket past the last bound.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (bucket upper edge, clamped to the
        observed [min, max]).

        Degenerate histograms are well-defined, not errors — scorecards from
        zero-traffic windows depend on this:

        * empty (``count == 0``): every quantile is **0.0**;
        * single sample: every quantile is exactly that sample (the clamp
          to [min, max] collapses the bucket edge onto it).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                edge = (self.bounds[i] if i < len(self.bounds) else self.maximum)
                return min(max(edge, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - ranks always land above

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create instruments keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------- accessors

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, _bounds: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], _bounds)
        return instrument

    # -------------------------------------------------------------- reading

    def counters(self) -> Iterator[Counter]:
        for key in sorted(self._counters):
            yield self._counters[key]

    def gauges(self) -> Iterator[Gauge]:
        for key in sorted(self._gauges):
            yield self._gauges[key]

    def histograms(self) -> Iterator[Histogram]:
        for key in sorted(self._histograms):
            yield self._histograms[key]

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(c.value for (n, _k), c in self._counters.items() if n == name)

    def reset(self) -> None:
        """Drop every instrument (benches/tests isolating the process-wide
        registry between measured scenarios).

        Call sites holding an instrument reference keep incrementing their
        orphaned copy; re-fetch after a reset to land in the registry again.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self.counters()
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in self.gauges()
            ],
            "histograms": [
                {"name": h.name, "labels": dict(h.labels), **h.summary()}
                for h in self.histograms()
            ],
        }

    def render(self, title: str = "metrics") -> str:
        lines = [title, "-" * len(title)]

        def tag(name: str, labels: LabelKey) -> str:
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        for c in self.counters():
            lines.append(f"{tag(c.name, c.labels)}  {c.value:g}")
        for g in self.gauges():
            lines.append(f"{tag(g.name, g.labels)}  {g.value:g}")
        for h in self.histograms():
            s = h.summary()
            lines.append(
                f"{tag(h.name, h.labels)}  n={s['count']} mean={s['mean']:.6g} "
                f"p50={s['p50']:.6g} p95={s['p95']:.6g} p99={s['p99']:.6g}"
            )
        return "\n".join(lines)


#: Process-wide default registry (components may also own private ones).
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample, ``q`` in [0, 1].

    An empty sample yields **0.0** (as :meth:`Histogram.quantile` does), so
    percentiles over zero-traffic windows are values rather than exceptions.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


class Summary:
    """Summary statistics of a sample set."""

    __slots__ = ("count", "mean", "minimum", "maximum", "p50", "p95", "p99")

    def __init__(self, count: int, mean: float, minimum: float, maximum: float,
                 p50: float, p95: float, p99: float) -> None:
        self.count = count
        self.mean = mean
        self.minimum = minimum
        self.maximum = maximum
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99

    @staticmethod
    def of(values: Sequence[float]) -> "Summary":
        if not values:
            return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)
        return Summary(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=nearest_rank(ordered, 0.50),
            p95=nearest_rank(ordered, 0.95),
            p99=nearest_rank(ordered, 0.99),
        )
