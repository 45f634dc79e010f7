"""Named counters, gauges and histograms, snapshotted per run.

The registry is the aggregate companion to the event-level
:mod:`~repro.obs.tracer`: where the tracer answers *when did it happen*,
the registry answers *how much of it happened*.  Simulation code never
writes it: it is a sink of ``env.probe`` (:mod:`repro.obs.probe`) that
folds every record as it arrives (the ``fold_*`` methods), keyed by the
record name up to its first colon so instance suffixes fold away.
``docs/observability.md`` tabulates how metric names derive from record
names.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]


class Counter:
    """A monotonically increasing count (chunks pushed, pulls cancelled)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A point-in-time level (prefetch queue depth, active flows)."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v

    def snapshot(self) -> dict:
        return {"value": self.value, "max": self.max}


class Histogram:
    """Summary statistics of observed samples (on-demand pull latency)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None,
                    "mean": 0.0}
        return {"count": self.count, "total": self.total, "min": self.min,
                "max": self.max, "mean": self.mean}


class NullMetricsRegistry:
    """The disabled registry: the probe never folds a record into it, and
    ``Observability`` never snapshots it."""

    __slots__ = ()

    enabled = False


#: The shared disabled registry.
NULL_METRICS = NullMetricsRegistry()


class MetricsRegistry:
    """Lazily-created named instruments, one namespace per run."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Record name -> the gauge / counter its series samples fold
        #: into (one lookup per sample on the kernel's per-event path).
        self._levels: dict[str, Gauge] = {}
        self._sums: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- the probe fold (see the module docstring) -------------------------
    def _add(self, name: str, n: float) -> None:
        c = self._counters.get(name) or self.counter(name)
        c.value += n

    def fold_event(self, name: str, args: Optional[dict],
                   dur: Optional[float], per: Optional[str]) -> None:
        """Fold one instant or span: a count (also per ``per`` category),
        sums of its numeric args, and its duration ``dur`` if any."""
        key = name.partition(":")[0]
        self._add(key, 1)
        if per is not None:
            self._add(f"{key}.{per}", 1)
        if args:
            for arg, v in args.items():
                if isinstance(v, (int, float)):
                    self._add(f"{key}.{arg}", v)
        if dur is not None:
            (self._histograms.get(key) or self.histogram(key)).observe(dur)

    def fold_levels(self, name: str, values: dict) -> None:
        """Fold one trace counter sample: a count plus one gauge per value."""
        key = name.partition(":")[0]
        self._add(key, 1)
        for k, v in values.items():
            self.gauge(f"{key}.{k}").set(v)

    def fold_level(self, name: str, value: float) -> None:
        """Fold one series gauge sample: last value and max."""
        g = self._levels.get(name)
        if g is None:
            g = self._levels[name] = self.gauge(name.partition(":")[0])
        g.value = value
        if value > g.max:
            g.max = value

    def fold_add(self, name: str, n: float) -> None:
        """Fold one increment of a cumulative series curve: a sum."""
        c = self._sums.get(name)
        if c is None:
            c = self._sums[name] = self.counter(name.partition(":")[0])
        c.value += n

    def snapshot(self) -> dict:
        """All instruments as plain sorted data (JSON-ready)."""
        return {
            "counters": {k: v.snapshot()
                         for k, v in sorted(self._counters.items())},
            "gauges": {k: v.snapshot()
                       for k, v in sorted(self._gauges.items())},
            "histograms": {k: v.snapshot()
                           for k, v in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        """Drop every instrument (used between runs of a sweep)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._levels.clear()
        self._sums.clear()

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)}c "
            f"{len(self._gauges)}g {len(self._histograms)}h>"
        )
