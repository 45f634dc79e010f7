"""``repro.obs.series`` — time-resolved telemetry for the simulator.

The tracer, analyzer, profiler and diff engine explain a run *after* it
ends, as totals and attributions; this package records how a migration
*evolves*: remaining-set drain, per-tag bandwidth, per-link utilization,
dirty rate, write-count distribution over time — the curves the paper
reasons with, and the sensor inputs the ROADMAP's adaptive controllers
(dynamic Threshold, prefetch re-planning, fleet orchestration) consume.

Four layers:

* the signal bus — :class:`~repro.obs.series.core.SeriesRecorder`
  (null-object pair on ``Observability``, like the tracer/profiler) with
  typed gauge / rate / distribution signals and fixed-bin resampling for
  bounded memory (:mod:`~repro.obs.series.core`);
* exact conservation — the ``net.<tag>`` rate signals mirror every
  ``TrafficMeter`` credit, so their Fraction step-integral equals the
  meter's tag total bit-exactly (:mod:`~repro.obs.series.conserve`);
* windowed aggregation — EWMA, rolling mean/max, resampling, rates from
  cumulatives (:mod:`~repro.obs.series.agg`);
* rendering — text sparklines, CSV, trace-derived series for the
  ``repro series`` CLI (:mod:`~repro.obs.series.render`).

Usage::

    from repro.obs import Observability
    obs = Observability(trace=False, metrics=False, series=True)
    run_fig2(obs=obs)
    doc = obs.series.summary()          # the repro.series/1 artifact

CLI: ``--series`` / ``--series-out`` on any run subcommand, then
``repro series SERIES.json``.  See ``docs/observability.md``.

Probe rules: observe-only. A probe piggybacks on an event that already
fires, schedules nothing, and never mutates simulation state — series
recording on vs off is byte-identical (asserted by
``tests/obs/test_series.py``).
"""

from __future__ import annotations

from repro.obs.series.agg import (
    ewma,
    rates_from_cumulative,
    resample,
    rolling_max,
    rolling_mean,
)
from repro.obs.series.conserve import integral_check, step_integral
from repro.obs.series.core import (
    NULL_SERIES,
    SCHEMA,
    NullSeriesRecorder,
    SeriesRecorder,
)
from repro.obs.series.render import (
    SeriesLoadError,
    coerce_series_doc,
    load_series_file,
    render_sparklines,
    series_csv,
    series_from_trace_events,
)

__all__ = [
    "NULL_SERIES",
    "NullSeriesRecorder",
    "SCHEMA",
    "SeriesLoadError",
    "SeriesRecorder",
    "coerce_series_doc",
    "ewma",
    "integral_check",
    "load_series_file",
    "rates_from_cumulative",
    "render_sparklines",
    "resample",
    "rolling_max",
    "rolling_mean",
    "series_csv",
    "series_from_trace_events",
    "step_integral",
]
