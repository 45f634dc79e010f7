"""The float critical-path walk against an all-``Fraction`` oracle.

:mod:`repro.obs.causal.critical` walks wait intervals on the recorder's
floats and builds ``Fraction``s only to snap the attempt window and to
sum segment durations.  The oracle below is the all-``Fraction`` walk it
replaced: every wait boundary converted on extraction, every comparison
and ``min`` done on rationals.  Both must produce identical documents,
``conservation.exact`` verdicts included, on wait graphs built to probe
the places where float and rational reasoning could part ways:
sub-microsecond boundaries, nested ``any``/``all`` conditions,
overlapping producer waits, handoff cycles and windows that need
snapping (or are inverted).
"""

from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.causal import critical
from repro.obs.causal.critical import SNAP_EPS, _pick, classify, critical_paths

# -- the oracle: the all-Fraction walk -----------------------------------------


class _OracleWait:
    __slots__ = ("t0", "t1", "desc")

    def __init__(self, t0: Fraction, t1: Fraction, desc: dict) -> None:
        self.t0 = t0
        self.t1 = t1
        self.desc = desc


def _oracle_extract(events: list) -> dict:
    out: dict = {}
    for ev in events:
        if ev.get("name") != "causal.wait" or ev.get("ph") != "i":
            continue
        args = ev.get("args", {})
        proc = args.get("p")
        if proc is None:
            continue
        out.setdefault(proc, []).append(_OracleWait(
            Fraction(float(args.get("t0", 0.0))),
            Fraction(float(args.get("t1", 0.0))),
            args.get("w") or {},
        ))
    for waits in out.values():
        waits.sort(key=lambda w: (w.t0, w.t1))
    return out


def _oracle_resolve(wbp, desc, lo, hi, stack):
    if hi <= lo:
        return []
    res = classify(desc)
    if res is not None:
        return [(lo, hi, res)]
    k = desc.get("k")
    if k == "proc":
        return _oracle_into(wbp, desc.get("p"), lo, hi, stack)
    if k == "event":
        by = desc.get("by")
        if by is None:
            return [(lo, hi, "unattributed")]
        return _oracle_into(wbp, by, lo, hi, stack)
    if k in ("any", "all"):
        winner = _pick(desc.get("c") or [], first_done=(k == "any"))
        if winner is None:
            return [(lo, hi, "unattributed")]
        return _oracle_resolve(wbp, winner, lo, hi, stack)
    return [(lo, hi, "unattributed")]


def _oracle_into(wbp, proc, lo, hi, stack):
    if not proc or proc in stack or proc not in wbp:
        return [(lo, hi, "handoff")]
    return _oracle_cover(wbp, proc, lo, hi, stack | {proc}, gap="handoff")


def _oracle_cover(wbp, proc, lo, hi, stack, gap):
    segs = []
    pos = lo
    for w in wbp.get(proc, []):
        if w.t1 <= pos:
            continue
        if w.t0 >= hi:
            break
        if w.t0 > pos:
            segs.append((pos, w.t0, gap))
            pos = w.t0
        end = min(w.t1, hi)
        segs.extend(_oracle_resolve(wbp, w.desc, pos, end, stack))
        pos = end
        if pos >= hi:
            break
    if pos < hi:
        segs.append((pos, hi, gap))
    return segs


def _oracle_merge(segs):
    merged = []
    for t0, t1, res in segs:
        if t1 <= t0:
            continue
        if merged and merged[-1][2] == res and merged[-1][1] == t0:
            merged[-1] = (merged[-1][0], t1, res)
        else:
            merged.append((t0, t1, res))
    return merged


def _oracle_snap(t, boundaries):
    best = None
    best_d = SNAP_EPS
    for b in boundaries:
        d = abs(b - t)
        if d <= best_d:
            best, best_d = b, d
    return best if best is not None else t


def oracle_critical_paths(events: list, timelines: list) -> list:
    wbp = _oracle_extract(events)
    if not wbp:
        return []
    out = []
    for tl in timelines:
        spine = f"migrate:{tl['vm']}"
        waits = wbp.get(spine)
        lo = Fraction(float(tl["start_s"]))
        hi = Fraction(float(tl["end_s"]))
        if waits:
            boundaries = sorted({w.t0 for w in waits} | {w.t1 for w in waits})
            lo = _oracle_snap(lo, boundaries)
            hi = _oracle_snap(hi, boundaries)
        segs = _oracle_merge(_oracle_cover(
            wbp, spine, lo, hi, frozenset({spine}), gap="unattributed",
        ))
        wall = hi - lo
        seg_sum = sum((t1 - t0 for t0, t1, _r in segs), Fraction(0))
        by_res: dict = {}
        for t0, t1, res in segs:
            by_res[res] = by_res.get(res, Fraction(0)) + (t1 - t0)
        out.append({
            "vm": tl["vm"],
            "attempt": tl["attempt"],
            "aborted": tl["aborted"],
            "start_s": float(lo),
            "end_s": float(hi),
            "wall_s": float(wall),
            "segments": [
                {"t0": float(t0), "t1": float(t1), "resource": res}
                for t0, t1, res in segs
            ],
            "by_resource": [
                {
                    "resource": res,
                    "seconds": float(secs),
                    "share": float(secs / wall) if wall > 0 else 0.0,
                }
                for res, secs in sorted(
                    by_res.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ],
            "conservation": {
                "exact": seg_sum == wall,
                "wall_s": float(wall),
                "segment_sum_s": float(seg_sum),
                "residual_s": float(abs(wall - seg_sum)),
            },
        })
    return out


# -- generated wait graphs -----------------------------------------------------

SPINE = "migrate:vm0"
PRODUCERS = ["p0", "p1", "p2"]
#: Grid steps: sub-µs non-binary, sub-µs exact binary, ms, coarse.
STEPS = [1e-7, 2.0 ** -23, 1e-3, 0.25]

_terminals = st.sampled_from([
    {"k": "net.flow", "d": {"cause": "push"}},
    {"k": "net.flow", "d": {"cause": "retry.push"}},
    {"k": "fluid", "d": {"name": "disk:n0"}},
    {"k": "timer"},
    {"k": "retry.backoff"},
    {"k": "mystery"},
])


def _wait_graph(step: float):
    """Strategy: ``(events, timelines)`` on a grid of width ``step``."""
    grid = st.integers(min_value=0, max_value=24)
    time = grid.map(lambda i: i * step)
    child_t1 = st.one_of(st.none(), time)
    descs = st.recursive(
        st.one_of(
            _terminals,
            st.builds(lambda p: {"k": "proc", "p": p},
                      st.sampled_from([SPINE, "ghost", None] + PRODUCERS)),
            st.builds(lambda by: {"k": "event"} if by is None
                      else {"k": "event", "by": by},
                      st.sampled_from([None, SPINE] + PRODUCERS)),
        ),
        lambda inner: st.builds(
            lambda k, kids: {"k": k, "c": kids},
            st.sampled_from(["any", "all"]),
            st.lists(st.builds(lambda d, t1: dict(d) if t1 is None
                               else {**d, "t1": t1}, inner, child_t1),
                     max_size=3),
        ),
        max_leaves=6,
    )
    interval = st.tuples(grid, st.integers(min_value=0, max_value=8))
    waits = st.lists(
        st.tuples(st.sampled_from([SPINE, SPINE] + PRODUCERS), interval,
                  descs),
        min_size=1, max_size=25,
    )
    # Window edges: a grid time, then exact, µs-roundtripped, or nudged
    # by up to a few snapping widths either way.
    nudge = st.sampled_from([0.0, 1e-10, -1e-10, 4e-7, -4e-7, 1e-6, -1e-6,
                             3e-6, -3e-6])
    edge = st.tuples(time, st.booleans(), nudge).map(
        lambda e: (e[0] * 1e6 / 1e6 if e[1] else e[0]) + e[2])
    windows = st.lists(st.tuples(edge, edge), min_size=1, max_size=2)

    def build(ws, wins):
        events = [
            {"name": "causal.wait", "ph": "i",
             "args": {"p": proc, "t0": a * step, "t1": (a + n) * step,
                      "w": desc}}
            for proc, (a, n), desc in ws
        ]
        timelines = [
            {"vm": "vm0", "attempt": i, "aborted": False,
             "start_s": lo, "end_s": hi}
            for i, (lo, hi) in enumerate(wins)
        ]
        return events, timelines

    return st.builds(build, waits, windows)


_graphs = st.sampled_from(STEPS).flatmap(_wait_graph)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_graphs)
def test_float_walk_matches_fraction_oracle(graph):
    events, timelines = graph
    got = critical_paths(events, {}, timelines=timelines)
    assert got == oracle_critical_paths(events, timelines)


def test_same_start_waits_walk_shortest_first():
    # The longer wait is listed first; the walk must still take the
    # shorter one first, then the longer one's remainder.
    events = [
        {"name": "causal.wait", "ph": "i",
         "args": {"p": SPINE, "t0": 0.0, "t1": 2.0, "w": {"k": "timer"}}},
        {"name": "causal.wait", "ph": "i",
         "args": {"p": SPINE, "t0": 0.0, "t1": 1.0,
                  "w": {"k": "retry.backoff"}}},
    ]
    timelines = [{"vm": "vm0", "attempt": 0, "aborted": False,
                  "start_s": 0.0, "end_s": 2.0}]
    (att,) = critical_paths(events, {}, timelines=timelines)
    assert [s["resource"] for s in att["segments"]] == [
        "retry.backoff", "timer"]
    assert [att] == oracle_critical_paths(events, timelines)


def test_inverted_window_is_not_exact_in_either_walk():
    events = [{"name": "causal.wait", "ph": "i",
               "args": {"p": SPINE, "t0": 0.0, "t1": 1.0,
                        "w": {"k": "timer"}}}]
    timelines = [{"vm": "vm0", "attempt": 0, "aborted": False,
                  "start_s": 0.75, "end_s": 0.25}]
    (att,) = critical_paths(events, {}, timelines=timelines)
    assert att["conservation"]["exact"] is False
    assert [att] == oracle_critical_paths(events, timelines)


# -- where the Fractions are built ---------------------------------------------


class _CountingFraction(Fraction):
    built = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.built += 1
        return super().__new__(cls, *args, **kwargs)


def _lane(n_producer_waits: int) -> list:
    """Three spine waits, one of them a handoff into a busy producer; an
    idle bystander process carries as many waits again."""
    def wait(proc: str, t0: float, t1: float, desc: dict) -> dict:
        return {"name": "causal.wait", "ph": "i",
                "args": {"p": proc, "t0": t0, "t1": t1, "w": desc}}

    events = [
        wait(SPINE, 0.0, 1.0, {"k": "timer"}),
        wait(SPINE, 1.0, 2.0, {"k": "proc", "p": "producer"}),
        wait(SPINE, 2.0, 3.0, {"k": "retry.backoff"}),
    ]
    step = 1.0 / n_producer_waits
    for i in range(n_producer_waits):
        events.append(wait("producer", 1.0 + i * step, 1.0 + (i + 1) * step,
                           {"k": "fluid", "d": {"name": "disk:n0"}}))
        events.append(wait("bystander", i * step, (i + 1) * step,
                           {"k": "timer"}))
    return events


def _fractions_built(monkeypatch: pytest.MonkeyPatch,
                     events: list) -> tuple[int, Optional[list]]:
    monkeypatch.setattr(critical, "Fraction", _CountingFraction)
    _CountingFraction.built = 0
    timelines = [{"vm": "vm0", "attempt": 0, "aborted": False,
                  "start_s": 0.0, "end_s": 3.0}]
    out = critical_paths(events, {}, timelines=timelines)
    return _CountingFraction.built, out


def test_no_fraction_per_non_spine_wait(monkeypatch):
    small, out_small = _fractions_built(monkeypatch, _lane(16))
    large, out_large = _fractions_built(monkeypatch, _lane(4096))
    assert out_small == out_large
    (att,) = out_large
    assert att["conservation"]["exact"]
    assert [s["resource"] for s in att["segments"]] == [
        "timer", "disk", "retry.backoff"]
    # Fractions come from the spine's snapping and the segment sums only:
    # 8192 extra non-spine waits add none.
    assert large == small
    assert large < 64
