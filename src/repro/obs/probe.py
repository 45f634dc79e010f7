"""``env.probe`` — the one telemetry handle simulation code touches.

It replaces the per-site ``env.tracer``, ``env.metrics`` and
``env.series`` handles and their separate ``enabled`` guards.  A site
reads the probe once and records inside one block::

    pb = self.env.probe
    if pb.enabled:
        pb.complete("push.batch", t0, now, cat="storage",
                    tid=f"push:{vm}", args={"chunks": n})

Each verb fans out at once to the live sinks, buffering nothing: the
trace verbs reach the :class:`~repro.obs.tracer.Tracer` and the series
verbs the :class:`~repro.obs.series.core.SeriesRecorder`, with their
arguments unchanged, and every verb is folded into the
:class:`~repro.obs.registry.MetricsRegistry`.  ``full=True`` keeps a
record out of the normal-detail trace (the fold still sees it);
``per=`` names a category the fold also counts the record under.
``docs/observability.md`` gives the authoring rules.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import NULL_METRICS
from repro.obs.series.core import NULL_SERIES
from repro.obs.tracer import NULL_TRACER

__all__ = ["NULL_PROBE", "Probe"]


class Probe:
    """A probe over a tracer, a series recorder and a registry; enabled
    when any of them records."""

    def __init__(self, tracer: Any, series: Any, metrics: Any) -> None:
        self.tracer = tracer
        self.series = series
        self.metrics = metrics
        self.enabled = tracer.enabled or series.enabled or metrics.enabled
        #: Causal wait recorder of the trace (``None`` = not recording).
        self.causal = tracer.causal
        #: Trace gates for normal-detail and ``full=True`` records.
        self._trace = tracer.enabled
        self._verbose = tracer.enabled and tracer.verbose
        self._series = series.enabled
        self._fold = metrics if metrics.enabled else None

    # -- trace verbs ---------------------------------------------------------
    def instant(self, name: str, cat: str = "", tid: str = "main",
                args: Optional[dict] = None, *, full: bool = False,
                per: Optional[str] = None) -> None:
        if self._verbose if full else self._trace:
            self.tracer.instant(name, cat, tid, args)
        if self._fold is not None:
            self._fold.fold_event(name, args, None, per)

    def complete(self, name: str, start: float, end: float, cat: str = "",
                 tid: str = "main", args: Optional[dict] = None, *,
                 full: bool = False) -> None:
        if self._verbose if full else self._trace:
            self.tracer.complete(name, start, end, cat, tid, args)
        if self._fold is not None:
            self._fold.fold_event(name, args, end - start, None)

    def async_span(self, name: str, start: float, end: float,
                   cat: str = "", tid: str = "main",
                   args: Optional[dict] = None, *,
                   per: Optional[str] = None) -> None:
        if self._trace:
            self.tracer.async_span(name, start, end, cat, tid, args)
        if self._fold is not None:
            self._fold.fold_event(name, args, end - start, per)

    def counter(self, name: str, values: dict, tid: str = "counters", *,
                full: bool = False) -> None:
        if self._verbose if full else self._trace:
            self.tracer.counter(name, values, tid)
        if self._fold is not None:
            self._fold.fold_levels(name, values)

    # -- series verbs --------------------------------------------------------
    def gauge(self, name: str, t: float, value: float,
              unit: str = "") -> None:
        if self._series:
            self.series.gauge(name, t, value, unit)
        if self._fold is not None:
            self._fold.fold_level(name, value)

    def inc(self, name: str, t: float, n: float = 1.0,
            unit: str = "count") -> None:
        if self._series:
            self.series.inc(name, t, n, unit)
        if self._fold is not None:
            self._fold.fold_add(name, n)

    def credit_net(self, tag: str, cause: str, t: float,
                   nbytes: float) -> None:
        if self._series:
            self.series.credit_net(tag, cause, t, nbytes)
        if self._fold is not None:
            self._fold.fold_add("net." + tag, nbytes)

    def distribution(self, name: str, t: float, cells: list,
                     unit: str = "chunks") -> None:
        if self._series:
            self.series.distribution(name, t, cells, unit)
        if self._fold is not None:
            self._fold.fold_event(name, None, None, None)


#: Every sink off: installed on every fresh environment.
NULL_PROBE = Probe(NULL_TRACER, NULL_SERIES, NULL_METRICS)
