"""Labeled counters, gauges and histograms for the migration stack.

The registry is the quantitative half of the telemetry layer (the
:mod:`~repro.telemetry.tracer` is the temporal half).  Instruments are
identified by ``(name, labels)`` — asking twice for the same pair
returns the same instrument — so hot paths can cache the handle while
casual callers just go through :class:`~repro.telemetry.probe.Probe`.

``snapshot()`` freezes every series; ``snapshot.diff(earlier)`` yields
the delta, which is how experiments attribute traffic or GC work to a
specific window (warm-up vs migration vs cool-down) without resetting
anything mid-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Sorted ``(key, value)`` pairs — hashable, order-insensitive labels.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (pages sent, retries, signals)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class BoundCounter:
    """One ``(name, labels)`` counter series, resolved once.

    :meth:`inc` skips the per-call label sort of
    :meth:`MetricsRegistry.counter`.  The series itself is created at the
    first :meth:`inc`, not at binding, so a registry's series keep the
    order in which they were first counted — snapshots and exports do not
    depend on when a call site bound its handles.
    """

    __slots__ = ("_registry", "_name", "_labels", "_counter")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: dict) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._counter: Counter | None = None

    def inc(self, amount: float = 1.0) -> None:
        counter = self._counter
        if counter is None:
            counter = self._counter = self._registry.counter(self._name, **self._labels)
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        counter.value += amount


class Gauge:
    """A point-in-time value (dirtying rate, pending pages)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Histogram buckets double from 1; values land in the first bucket
#: whose bound is >= the observation.  16 buckets cover 1 .. 32768 with
#: a +Inf overflow, enough dynamic range for pages, bytes-per-call and
#: microsecond latencies alike once callers pick sensible units.
_BUCKET_BOUNDS = tuple(float(2**i) for i in range(16)) + (math.inf,)


class Histogram:
    """A distribution summary: count, sum, min/max, log2 buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * len(_BUCKET_BOUNDS)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class SeriesValue:
    """One frozen series in a snapshot."""

    kind: str  # "counter" | "gauge" | "histogram"
    name: str
    labels: LabelKey
    value: float = 0.0  # counter/gauge value, histogram sum
    count: int = 0  # histogram observation count
    min: float = 0.0
    max: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.kind == "histogram":
            out.update(count=self.count, min=self.min, max=self.max)
        return out


@dataclass
class MetricsSnapshot:
    """A frozen view of every series at one moment."""

    series: dict[tuple[str, LabelKey], SeriesValue] = field(default_factory=dict)

    def get(self, name: str, **labels) -> SeriesValue | None:
        return self.series.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        found = self.get(name, **labels)
        return found.value if found is not None else default

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened between *earlier* and this snapshot.

        Counters and histogram sums/counts subtract; gauges keep the
        later reading (a gauge has no meaningful delta); min/max are
        not invertible so the later window's extremes are kept.
        """
        out = MetricsSnapshot()
        for key, now in self.series.items():
            before = earlier.series.get(key)
            if before is None or now.kind == "gauge":
                out.series[key] = now
                continue
            out.series[key] = SeriesValue(
                kind=now.kind,
                name=now.name,
                labels=now.labels,
                value=now.value - before.value,
                count=now.count - before.count,
                min=now.min,
                max=now.max,
            )
        return out

    def to_dict(self) -> dict:
        return {"series": [sv.to_dict() for sv in self.series.values()]}

    def __len__(self) -> int:
        return len(self.series)


class MetricsRegistry:
    """All instruments of one simulation, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- instrument factories (get-or-create) -------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram()
        return found

    # -- introspection -------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        snap = MetricsSnapshot()
        for (name, labels), c in self._counters.items():
            snap.series[(name, labels)] = SeriesValue("counter", name, labels, c.value)
        for (name, labels), g in self._gauges.items():
            snap.series[(name, labels)] = SeriesValue("gauge", name, labels, g.value)
        for (name, labels), h in self._histograms.items():
            snap.series[(name, labels)] = SeriesValue(
                "histogram", name, labels,
                value=h.total, count=h.count,
                min=h.min if h.count else 0.0,
                max=h.max if h.count else 0.0,
            )
        return snap

    def to_dict(self) -> dict:
        return self.snapshot().to_dict()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
