"""Series bins against the list-per-bin resampler they replaced.

A signal's bins keep only the last value per bin plus one sample count;
the run-wide min/max live on the signal.  The reference below is the
earlier resampler that kept ``[count, min, max, last]`` per bin.  Fed the
same sample streams, both must export the same points, sample count,
min and max — through coarsening and out-of-order times.  Closed runs
become documents only in ``summary()``, which must therefore be
idempotent and leave earlier documents alone when more runs follow.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.series import SeriesRecorder


class _ReferenceBinned:
    """Fixed-bin last/min/max/count resampler with doubling coarsening."""

    def __init__(self, width: float, max_bins: int) -> None:
        self.width = width
        self.max_bins = max_bins
        self.bins: dict[int, list[float]] = {}

    def add(self, t: float, value: float) -> None:
        idx = int(t / self.width)
        while idx >= self.max_bins:
            self._coarsen()
            idx = int(t / self.width)
        cell = self.bins.get(idx)
        if cell is None:
            self.bins[idx] = [1, value, value, value]
        else:
            cell[0] += 1
            if value < cell[1]:
                cell[1] = value
            if value > cell[2]:
                cell[2] = value
            cell[3] = value

    def _coarsen(self) -> None:
        self.width *= 2
        merged: dict[int, list[float]] = {}
        for idx in sorted(self.bins):
            cell = self.bins[idx]
            tgt = merged.get(idx // 2)
            if tgt is None:
                merged[idx // 2] = list(cell)
            else:
                tgt[0] += cell[0]
                if cell[1] < tgt[1]:
                    tgt[1] = cell[1]
                if cell[2] > tgt[2]:
                    tgt[2] = cell[2]
                tgt[3] = cell[3]
        self.bins = merged

    def points(self) -> list:
        return [[idx * self.width, self.bins[idx][3]]
                for idx in sorted(self.bins)]

    def samples(self) -> int:
        return int(sum(cell[0] for cell in self.bins.values()))

    def vmin(self) -> float:
        return min(cell[1] for cell in self.bins.values())

    def vmax(self) -> float:
        return max(cell[2] for cell in self.bins.values())


WIDTH = 0.25
MAX_BINS = 4


def _gauge_doc(stream):
    rec = SeriesRecorder(bin_width=WIDTH, max_bins=MAX_BINS)
    for t, v in stream:
        rec.gauge("g", t, v)
    return rec.summary()["runs"][0]["signals"]["g"]


def _assert_matches_reference(stream):
    ref = _ReferenceBinned(WIDTH, MAX_BINS)
    for t, v in stream:
        ref.add(t, float(v))
    doc = _gauge_doc(stream)
    assert doc["points"] == ref.points()
    assert doc["samples"] == ref.samples()
    assert doc["min"] == ref.vmin()
    assert doc["max"] == ref.vmax()
    assert doc["bin_width"] == ref.width


def test_two_coarsenings_and_out_of_order_times_within_a_bin():
    # Bins of 0.25 s, at most 4: t=1.9 forces 0.5 s bins, t=3.1 1 s bins.
    # Inside each bin the times run backwards, so "last" means last
    # written, not latest in time.
    stream = [(0.2, 5.0), (0.1, 7.0), (0.05, 1.0),
              (0.7, 2.0), (0.6, 9.0),
              (1.9, 4.0), (1.6, -3.0),
              (3.1, 6.0), (2.2, 8.0), (3.0, 0.5)]
    _assert_matches_reference(stream)
    assert _gauge_doc(stream)["bin_width"] == 4 * WIDTH


_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=400).map(lambda i: i / 37),
              st.integers(min_value=-50, max_value=50)),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_streams)
def test_gauges_match_reference(stream):
    _assert_matches_reference(stream)


@settings(max_examples=100, deadline=None)
@given(_streams)
def test_rate_curves_match_reference(stream):
    rec = SeriesRecorder(bin_width=WIDTH, max_bins=MAX_BINS)
    ref = _ReferenceBinned(WIDTH, MAX_BINS)
    total = 0.0
    for t, n in stream:
        rec.inc("r", t, float(n))
        total += float(n)
        ref.add(t, total)
    doc = rec.summary()["runs"][0]["signals"]["r"]
    assert doc["points"] == ref.points()
    assert doc["samples"] == ref.samples()
    assert doc["total"] == total


def _record_run(rec: SeriesRecorder, offset: float) -> None:
    for i in range(40):
        rec.gauge("level", offset + i * 0.3, float(i % 7))
        rec.inc("done", offset + i * 0.3, 2.0)
    rec.distribution("fates", offset, [[1, "pushed", 3]])


def test_summary_is_idempotent():
    rec = SeriesRecorder(bin_width=WIDTH, max_bins=MAX_BINS)
    _record_run(rec, 0.0)
    rec.finish_run("a")
    _record_run(rec, 1.0)  # left open: the "(unscoped)" run
    first = rec.summary()
    assert json.dumps(first, sort_keys=True) == json.dumps(rec.summary(),
                                                           sort_keys=True)
    assert [run["label"] for run in first["runs"]] == ["a", "(unscoped)"]


def test_finish_run_after_summary_keeps_earlier_documents():
    rec = SeriesRecorder(bin_width=WIDTH, max_bins=MAX_BINS)
    _record_run(rec, 0.0)
    rec.finish_run("a")
    first = rec.summary()
    frozen = copy.deepcopy(first)
    _record_run(rec, 5.0)
    rec.finish_run("b")
    second = rec.summary()
    assert first == frozen
    assert second["runs"][0] == frozen["runs"][0]
    assert [run["label"] for run in second["runs"]] == ["a", "b"]
