"""``repro.obs`` — structured tracing + metrics across the simulation stack.

The simulator's layers (kernel, fabric, storage managers, hypervisor,
repositories) are instrumented against one handle installed on every
:class:`~repro.simkernel.core.Environment`, ``env.probe``
(:mod:`repro.obs.probe`).  Each probe record fans out to the live sinks:

* the tracer — typed span/instant/counter events stamped with
  simulation time (:mod:`repro.obs.tracer`);
* the series recorder — time-resolved signals (:mod:`repro.obs.series`);
* the metrics registry — named counters/gauges/histograms folded from
  the records (:mod:`repro.obs.registry`).

With every sink off the environment carries the null probe, so an
uninstrumented run pays one ``enabled`` check per site.
:class:`Observability` bundles live sinks, installs them into
environments, scopes multi-run sweeps into separate trace process lanes
and per-run metric snapshots, and writes the exports
(:mod:`repro.obs.export`)::

    obs = Observability(detail="normal")
    outcome = run_single_migration("our-approach", obs=obs)
    obs.write(trace_path="trace.json", metrics_path="metrics.json")

See ``examples/trace_a_migration.py`` for the full walkthrough and
``docs/observability.md`` for the probe idiom and the metric names.
"""

from __future__ import annotations

import pathlib
from typing import Optional, Union

from repro.obs.export import (
    chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
    write_series_json,
    write_trace,
)
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.prof import NULL_PROFILER, NullProfiler, Profiler
from repro.obs.registry import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.series.core import (
    NULL_SERIES,
    NullSeriesRecorder,
    SeriesRecorder,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_PROBE",
    "NULL_PROFILER",
    "NULL_SERIES",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullProfiler",
    "NullSeriesRecorder",
    "NullTracer",
    "Observability",
    "Probe",
    "Profiler",
    "SeriesRecorder",
    "Tracer",
    "chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_json",
    "write_series_json",
    "write_trace",
]


class _RunScope:
    """Context manager: one experiment run inside an Observability."""

    __slots__ = ("_obs", "_label", "_pid_scope")

    def __init__(self, obs: "Observability", label: str):
        self._obs = obs
        self._label = label
        self._pid_scope = None

    def __enter__(self) -> "_RunScope":
        self._pid_scope = self._obs.tracer.scope(self._label)
        self._pid_scope.__enter__()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._pid_scope.__exit__(*exc)
        if self._obs.metrics.enabled:
            self._obs.runs[self._label] = self._obs.metrics.snapshot()
            self._obs.metrics.reset()
        if self._obs.series.enabled:
            self._obs.series.finish_run(self._label)
        return False


class Observability:
    """A live tracer + metrics registry and their lifecycle plumbing.

    Parameters
    ----------
    trace:
        Record trace events (a real :class:`Tracer`); otherwise the null
        tracer is installed and only metrics are live.
    metrics:
        Record aggregate metrics; otherwise the null registry is used.
    detail:
        Tracer detail level (``"normal"`` or ``"full"``, see
        :class:`Tracer`).
    causal:
        Also record causal wait edges (``repro.obs.causal``) for
        critical-path extraction.  Implies ``trace=True``.
    profile:
        Attribute *host* wall-clock, allocations and work counters to
        subsystems (``repro.obs.prof``).  Pass ``True`` for a fresh
        :class:`Profiler` or a pre-configured instance (e.g.
        ``Profiler(alloc=True)``).  Profiling never changes simulation
        output — only host-side measurement.
    series:
        Record time-resolved telemetry (``repro.obs.series``): drain
        curves, per-tag bandwidth, dirty rate, distribution snapshots.
        Pass ``True`` for a fresh :class:`SeriesRecorder` or a
        pre-configured instance (e.g. ``SeriesRecorder(max_bins=2048)``).
        Observe-only — simulation output is byte-identical on vs off.
    """

    def __init__(self, trace: bool = True, metrics: bool = True,
                 detail: str = "normal", causal: bool = False,
                 profile: "bool | Profiler" = False,
                 series: "bool | SeriesRecorder" = False):
        if causal:
            trace = True
        self.tracer = Tracer(detail=detail) if trace else NULL_TRACER
        if causal:
            self.tracer.enable_causal()
        self.metrics: MetricsRegistry | NullMetricsRegistry = (
            MetricsRegistry() if metrics else NULL_METRICS
        )
        if isinstance(profile, Profiler):
            self.profiler: Profiler | NullProfiler = profile
        else:
            self.profiler = Profiler() if profile else NULL_PROFILER
        if isinstance(series, SeriesRecorder):
            self.series: SeriesRecorder | NullSeriesRecorder = series
        else:
            self.series = SeriesRecorder() if series else NULL_SERIES
        #: The one handle simulation code records through.
        self.probe = Probe(self.tracer, self.series, self.metrics)
        #: Finished per-run metric snapshots, keyed by run label.
        self.runs: dict[str, dict] = {}

    # -- wiring ------------------------------------------------------------
    def install(self, env) -> "Observability":
        """Install the probe and the profiler onto ``env`` (rebinds the
        trace clock)."""
        env.probe = self.probe
        env.profiler = self.profiler
        self.tracer.bind(env)
        return self

    def run_scope(self, label: str) -> _RunScope:
        """Scope one experiment run.

        Trace events inside land in a process lane named ``label``; on exit
        the live metric instruments are snapshotted into :attr:`runs` under
        the same label and reset for the next run.  Labels are made unique
        (``#2``, ``#3`` ...) when a sweep repeats one.
        """
        unique = label
        k = 2
        while unique in self.runs:
            unique = f"{label}#{k}"
            k += 1
        return _RunScope(self, unique)

    def note_traffic(self, meter) -> None:
        """Record a TrafficMeter's final accounting for this run.

        Per-tag and per-cause totals land as ``net.bytes.*`` /
        ``net.cause.*`` counters, and the raw ``(tag, cause)`` pair
        matrix is emitted into the trace as a ``traffic.snapshot``
        instant — the analyzer's ground truth for the conservation
        check (:mod:`repro.obs.analyze.attribution`).
        """
        if self.tracer.enabled:
            pairs = sorted(meter.by_pair().items())
            self.tracer.instant(
                "traffic.snapshot", cat="net", tid="net:accounting",
                args={"pairs": [[t, c, v] for (t, c), v in pairs]},
            )
        if self.series.enabled:
            self.series.check_conservation(meter)
        if not self.metrics.enabled:
            return
        for tag, nbytes in sorted(meter.by_tag().items()):
            self.metrics.counter(f"net.bytes.{tag}").inc(nbytes)
        for cause, nbytes in sorted(meter.by_cause().items()):
            self.metrics.counter(f"net.cause.{cause}").inc(nbytes)

    # -- output ------------------------------------------------------------
    def metrics_dump(self) -> dict:
        """All finished runs plus any still-live instruments."""
        dump: dict = {"runs": dict(self.runs)}
        if self.metrics.enabled:
            live = self.metrics.snapshot()
            if any(live.get(kind) for kind in
                   ("counters", "gauges", "histograms")):
                dump["live"] = live
        return dump

    def write(self,
              trace_path: Optional[Union[str, pathlib.Path]] = None,
              metrics_path: Optional[Union[str, pathlib.Path]] = None,
              series_path: Optional[Union[str, pathlib.Path]] = None) -> None:
        """Write the requested exports (trace format by file suffix)."""
        if trace_path is not None and self.tracer.enabled:
            write_trace(self.tracer, trace_path)
        if metrics_path is not None:
            write_metrics_json(self.metrics_dump(), metrics_path)
        if series_path is not None and self.series.enabled:
            write_series_json(self.series.summary(), series_path)

    def __repr__(self) -> str:
        n = len(self.tracer.events) if self.tracer.enabled else 0
        return f"<Observability events={n} runs={len(self.runs)}>"
