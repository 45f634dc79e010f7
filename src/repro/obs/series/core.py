"""Time-resolved telemetry: the ``SeriesRecorder`` signal bus.

Typed signals, written by observe-only probes threaded through the
engines, netsim, hypervisor models and the kernel:

``gauge``
    A sampled level (remaining-set size, link utilization, dirty bytes,
    ready-queue depth).  Each sample lands in a fixed-bin resampler so a
    long run keeps bounded memory.  The signal exports the last value
    per bin, its total sample count and its run-wide min and max.
``rate``
    A cumulative byte (or count) curve.  The ``net.<tag>`` signals
    mirror the :class:`~repro.netsim.traffic.TrafficMeter` credit
    structure pair-for-pair, in the same float order, so the curve's
    final value is bit-identical to ``meter.by_tag()[tag]`` and the
    Fraction step-integral of the series telescopes to the meter total
    *exactly* (see :mod:`repro.obs.series.conserve`).
``distribution``
    Snapshots of a categorical histogram over time — the per-chunk
    write-count × fate cells, in the same ``[[writes, column, count]]``
    format the analyzer's heatmaps use.

Probe contract (enforced by tests, documented in
``docs/observability.md``): probes piggyback on events that already
fire, schedule nothing, and never touch simulation state — a run with
series recording on is byte-identical to one with it off.  Simulation
code reaches the recorder only through ``env.probe``
(:mod:`repro.obs.probe`), whose series verbs forward here unchanged;
:data:`NULL_SERIES` stands in when recording is off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.series.conserve import integral_check

if TYPE_CHECKING:
    from repro.obs.series.conserve import TrafficMeterLike

SCHEMA = "repro.series/1"

#: Initial resampling bin width in sim-seconds, and the bin-count bound.
#: When a run outgrows ``max_bins`` the bin width doubles and adjacent
#: bins merge — deterministic, and memory stays O(max_bins) per signal.
DEFAULT_BIN_WIDTH = 0.0625
DEFAULT_MAX_BINS = 512


class NullSeriesRecorder:
    """Recording disabled.  The probe never forwards a signal here and
    ``Observability`` closes no run in it; the summary says it was off.

    Instances carry no state (``__slots__ = ()``) so a stray attribute
    write fails loudly instead of silently recording nothing.
    """

    __slots__ = ()

    enabled = False

    def summary(self) -> dict:
        return {"schema": SCHEMA, "enabled": False}


NULL_SERIES = NullSeriesRecorder()


class _Signal:
    """One signal's state.

    Gauge and rate samples land in fixed-width bins that keep only the
    last value written (``bins``: bin index -> value), plus one sample
    count for the whole signal; gauges also keep their run-wide min and
    max.  A sample past ``max_bins`` doubles the bin width and merges
    adjacent bins, the later half-bin's value winning.
    """

    __slots__ = ("kind", "unit", "width", "max_bins", "bins", "samples",
                 "vmin", "vmax", "total", "snapshots")

    def __init__(self, kind: str, unit: str, width: float,
                 max_bins: int) -> None:
        self.kind = kind
        self.unit = unit
        self.width = width
        self.max_bins = max_bins
        self.bins: dict[int, float] = {}
        self.samples = 0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.total = 0.0
        self.snapshots: list[dict] = []

    def add(self, t: float, value: float) -> None:
        idx = int(t / self.width)
        if idx >= self.max_bins:
            idx = self.coarsen(t)
        self.bins[idx] = value
        self.samples += 1

    def coarsen(self, t: float) -> int:
        """Double the bin width until ``t`` fits; returns ``t``'s bin."""
        idx = int(t / self.width)
        while idx >= self.max_bins:
            self.width *= 2
            # Merge in ascending index order so the later half-bin's
            # value wins, whatever the insertion history.
            self.bins = {i // 2: v for i, v in sorted(self.bins.items())}
            idx = int(t / self.width)
        return idx

    def as_doc(self) -> dict:
        doc: dict = {"kind": self.kind, "unit": self.unit}
        if self.kind == "distribution":
            doc["snapshots"] = self.snapshots
            return doc
        doc["bin_width"] = self.width
        doc["samples"] = self.samples
        # [[bin_start_s, last_value], ...] in time order.
        doc["points"] = [[idx * self.width, self.bins[idx]]
                         for idx in sorted(self.bins)]
        if self.kind == "gauge":
            doc["min"] = self.vmin
            doc["max"] = self.vmax
        else:  # rate: cumulative curve
            doc["total"] = self.total
        return doc


class SeriesRecorder:
    """Recording enabled: typed signals with per-run scoping.

    ``finish_run(label)`` closes the signals recorded so far as one run
    and resets — :class:`repro.obs.Observability` calls it when a
    ``run_scope`` exits, mirroring how metrics snapshots work.
    ``summary()`` then emits the deterministic ``repro.series/1`` doc.
    A closed run becomes a document only there, so its points are not
    kept as live objects while the simulation runs.
    """

    enabled = True

    def __init__(self, bin_width: float = DEFAULT_BIN_WIDTH,
                 max_bins: int = DEFAULT_MAX_BINS) -> None:
        self.bin_width = bin_width
        self.max_bins = max_bins
        self.runs: list[dict] = []
        self._closed: list[tuple[str, dict[str, _Signal], dict | None]] = []
        self._signals: dict[str, _Signal] = {}
        # Mirror of TrafficMeter._pairs: same keys, same accumulation
        # order, same float operations — the basis of exact conservation.
        self._net_pairs: dict[tuple[str, str], float] = {}
        self._net_tag_causes: dict[str, list[str]] = {}
        self._conservation: dict | None = None

    # -- signal writers (the probe API) ------------------------------------

    def _signal(self, name: str, kind: str, unit: str) -> _Signal:
        sig = self._signals.get(name)
        if sig is None:
            sig = _Signal(kind, unit, self.bin_width, self.max_bins)
            self._signals[name] = sig
        return sig

    def gauge(self, name: str, t: float, value: float,
              unit: str = "") -> None:
        """Sample a level signal at sim-time ``t``."""
        sig = self._signals.get(name) or self._signal(name, "gauge", unit)
        value = float(value)
        # _Signal.add, inlined: the kernel samples two gauges per event.
        idx = int(t / sig.width)
        if idx >= sig.max_bins:
            idx = sig.coarsen(t)
        sig.bins[idx] = value
        sig.samples += 1
        if sig.vmin is None or value < sig.vmin:
            sig.vmin = value
        if sig.vmax is None or value > sig.vmax:
            sig.vmax = value

    def inc(self, name: str, t: float, n: float = 1.0,
            unit: str = "count") -> None:
        """Advance a cumulative progress curve by ``n`` at time ``t``."""
        sig = self._signal(name, "rate", unit)
        sig.total += n
        sig.add(t, sig.total)

    def credit_net(self, tag: str, cause: str, t: float,
                   nbytes: float) -> None:
        """Mirror one ``TrafficMeter.add`` credit into ``net.<tag>``.

        Must be called with the *same value, at the same site, in the
        same order* as the meter credit it shadows.  The per-tag
        cumulative is recomputed the way ``TrafficMeter.by_tag`` sums —
        per ``(tag, cause)`` pair, pairs in first-seen order — so the
        curve's last value is bit-identical to the meter's tag total.
        """
        key = (tag, cause)
        pairs = self._net_pairs
        if key not in pairs:
            self._net_tag_causes.setdefault(tag, []).append(cause)
        pairs[key] = pairs.get(key, 0.0) + nbytes
        cum = 0.0
        for c in self._net_tag_causes[tag]:
            cum += pairs[(tag, c)]
        sig = self._signal(f"net.{tag}", "rate", "B")
        sig.total = cum
        sig.add(t, cum)

    def distribution(self, name: str, t: float, cells: list,
                     unit: str = "chunks") -> None:
        """Snapshot a categorical histogram (``[[writes, column, count]]``)."""
        sig = self._signal(name, "distribution", unit)
        sig.snapshots.append({
            "t": t,
            "cells": [[int(a), str(b), int(c)] for a, b, c in cells],
        })

    # -- conservation / scoping --------------------------------------------

    def net_totals(self) -> dict[str, float]:
        """Per-tag series totals, summed exactly as ``by_tag`` sums."""
        out: dict[str, float] = {}
        for tag, causes in self._net_tag_causes.items():
            cum = 0.0
            for c in causes:
                cum += self._net_pairs[(tag, c)]
            out[tag] = cum
        return out

    def check_conservation(self, meter: "TrafficMeterLike") -> None:
        """Fraction-compare the series totals against a TrafficMeter.

        Piggybacked on :meth:`repro.obs.Observability.note_traffic`; the
        verdict is embedded in the current run's document and surfaced
        as a badge in the flight report.
        """
        self._conservation = integral_check(self.net_totals(),
                                            dict(meter.by_tag()))

    def finish_run(self, label: str) -> None:
        """Close the signals recorded so far as one run, then reset."""
        self._closed.append((label, self._signals, self._conservation))
        self._signals = {}
        self._net_pairs = {}
        self._net_tag_causes = {}
        self._conservation = None

    @staticmethod
    def _run_doc(label: str, signals: dict[str, _Signal],
                 conservation: dict | None) -> dict:
        return {
            "label": label,
            "signals": {
                name: signals[name].as_doc() for name in sorted(signals)
            },
            "conservation": conservation,
        }

    def summary(self) -> dict:
        """The deterministic ``repro.series/1`` document.

        Runs closed since the last call become documents here, once;
        later calls reuse them.
        """
        # Pop as we go: each run's bins are freed before the next run's
        # document is built, which keeps peak memory down.
        closed, self._closed = self._closed, []
        while closed:
            self.runs.append(self._run_doc(*closed.pop(0)))
        runs = list(self.runs)
        if self._signals:
            runs.append(self._run_doc("(unscoped)", self._signals,
                                      self._conservation))
        return {"schema": SCHEMA, "enabled": True, "runs": runs}
