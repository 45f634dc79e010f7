#!/usr/bin/env python
"""Benchmark trajectory harness: track simulator performance over time.

Unlike the pytest-benchmark suite ``bench_report.py`` this is a plain
script with no test-framework dependency, so CI can run it directly and
keep a machine-readable history.  Each invocation

* runs a fixed set of simulator scenarios (event-loop ticker, fluid
  share churn, max-min recomputation, one end-to-end hybrid migration),
  each with one warmup run then median-of-3 timed runs, measuring
  wall-clock, events processed (the kernel's lifetime
  ``Environment.events_processed`` counter), peak RSS and — via the
  ``repro.obs.prof`` self-profiler — a per-subsystem ``wall_s``
  breakdown plus work counters (solver invocations, links visited,
  heap operations, chunk scans);
* runs one *traced* fig2 migration with causal recording, feeds the
  trace to ``repro.obs.analyze`` and fails (exit 1) unless every run's
  per-cause bytes conserve exactly against the TrafficMeter total *and*
  every migration attempt's critical-path segments sum exactly to its
  wall time;
* times the same fig2 cell with telemetry off and with each channel
  (trace, trace+causal, series, metrics) on alone, and records each
  channel's on/off wall ratio (``obs_overhead``; reported, not gated);
* appends one entry to ``BENCH_simulator.json`` (a JSON array at the
  repo root by default) so successive runs form a trajectory, and fails
  if aggregate kernel events/sec regressed more than 30% against the
  previous entry of the same mode (``--no-gate`` records the entry
  without failing, for noisy machines).

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py --quick \
        --report report.html
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import platform
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

if "repro" not in sys.modules:  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.simkernel import Environment  # noqa: E402

SCHEMA = "repro.bench/1"
MB = 2**20


def _peak_rss_kb() -> int | None:
    """Peak resident set size of this process, in KiB (None off-Linux)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return rss // 1024 if sys.platform == "darwin" else rss


def scenario_event_loop(quick: bool, prof):
    """Ping-pong timeout chains: pure kernel overhead per event."""
    ticks = 5000 if quick else 20000
    env = Environment()
    env.profiler = prof

    def ticker():
        for _ in range(ticks):
            yield env.timeout(1.0)

    for _ in range(4):
        env.process(ticker())
    env.run()
    assert env.now == float(ticks)
    return env.now, env.events_processed


def scenario_fluid_churn(quick: bool, prof):
    """Arrivals/departures on one fluid resource (disk model hot path)."""
    from repro.simkernel.fluid import FluidShare

    ops = 1500 if quick else 3000
    env = Environment()
    env.profiler = prof
    share = FluidShare(env, capacity=1e6)

    def spawner():
        for i in range(ops):
            share.transfer(1e4 + (i % 7) * 1e3)
            yield env.timeout(0.003)

    env.process(spawner())
    env.run()
    assert share.total_bytes > 0
    return share.total_bytes, env.events_processed


def scenario_maxmin(quick: bool, prof):
    """Incremental rate recomputation at fig4 scale (60 hosts, ~90 flows).

    Drives :class:`~repro.netsim.fairness.IncrementalMaxMin` the way the
    fabric does: a cyclic edit script alternates between 10 distinct
    flow-set configurations (arrivals/departures), and every fifth of
    the run a link fault + recovery bumps the topology version and
    invalidates every memoized solution.  Between edits, repeat solves
    are served from the memo; the ``maxmin.links_visited`` counter only
    grows on real solves, so links-visited-per-invocation is the work
    metric the trajectory gate tracks.
    """
    from repro.netsim.fairness import IncrementalMaxMin
    from repro.netsim.topology import Topology

    rounds = 500 if quick else 2000
    rng = np.random.default_rng(1)
    n_hosts, n_flows = 60, 90
    topo = Topology(backplane=2.5e9)
    for i in range(n_hosts):
        topo.add_host(f"h{i}", 117.5e6)
    base_srcs = rng.integers(0, n_hosts, n_flows).astype(np.intp)
    base_dsts = (base_srcs + rng.integers(1, n_hosts, n_flows)) % n_hosts
    base_weights = rng.uniform(0.5, 4.0, n_flows)
    configs = []
    for k in range(10):
        keep = np.ones(n_flows, dtype=bool)
        keep[rng.integers(0, n_flows, size=k)] = False
        configs.append((base_srcs[keep].copy(), base_dsts[keep].copy(),
                        base_weights[keep].copy()))
    solver = IncrementalMaxMin(topo)
    stats = {} if prof.enabled else None
    fault_every = max(rounds // 5, 1)
    total = 0.0
    rates = None
    with prof.scope("maxmin.solve"):
        for r in range(rounds):
            if r % fault_every == fault_every - 1:
                host = topo.hosts[r % n_hosts]
                topo.degrade_host(host, 0.5)
                topo.restore_host(host)
            srcs, dsts, weights = configs[r % len(configs)]
            rates = solver.solve(weights, srcs, dsts, stats=stats)
            total += float(rates.sum())
    if stats is not None:
        prof.count("maxmin.invocations", rounds)
        prof.count("maxmin.rounds", stats.get("rounds", 0))
        prof.count("maxmin.links_visited", stats.get("links_visited", 0))
        prof.count("maxmin.solves", stats.get("solves", 0))
        prof.count("maxmin.memo_hits", stats.get("memo_hits", 0))
    assert rates is not None and (rates > 0).all()
    return total, rounds


def scenario_migration(quick: bool, prof):
    """A complete hybrid migration under write pressure."""
    from repro.cluster import CloudMiddleware, Cluster
    from repro.experiments.config import graphene_spec
    from repro.workloads.synthetic import SequentialWriter

    ws = (64 if quick else 256) * MB
    total = (128 if quick else 512) * MB
    env = Environment()
    env.profiler = prof
    cloud = CloudMiddleware(Cluster(env, graphene_spec(8)))
    vm = cloud.deploy("vm0", cloud.cluster.node(0), working_set=ws)
    SequentialWriter(
        vm, total_bytes=total, rate=60e6, op_size=4 * MB,
        region_offset=1024 * MB, region_size=total,
    ).start()
    done = {}

    def migrator():
        yield env.timeout(2.0)
        done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

    env.process(migrator())
    env.run()
    assert done["rec"].migration_time > 0
    return done["rec"].migration_time, env.events_processed


SCENARIOS = [
    ("event_loop", scenario_event_loop),
    ("fluid_share_churn", scenario_fluid_churn),
    ("maxmin_fast_path", scenario_maxmin),
    ("end_to_end_migration", scenario_migration),
]

#: Per scenario: discarded warmup runs, then timed runs (median reported).
WARMUP_RUNS = 1
TIMED_RUNS = 3


def _time_scenario(name: str, fn, quick: bool):
    """Warmup, then median-of-``TIMED_RUNS`` with profiling *off* (the
    gate tracks raw kernel throughput), then one extra profiled run for
    the per-subsystem breakdown.  Returns ``(wall, events, profiler,
    all_walls)``."""
    import gc

    from repro.obs.prof import NULL_PROFILER, Profiler

    for _ in range(WARMUP_RUNS):
        fn(quick, NULL_PROFILER)
    runs = []
    for _ in range(TIMED_RUNS):
        # Collect leftovers from the previous run (dead Environments hold
        # large cyclic graphs) so its garbage isn't billed to this run.
        gc.collect()
        t0 = time.perf_counter()
        _result, events = fn(quick, NULL_PROFILER)
        wall = time.perf_counter() - t0
        runs.append((wall, events))
    by_wall = sorted(runs, key=lambda r: r[0])
    wall, events = by_wall[len(by_wall) // 2]
    prof = Profiler()
    fn(quick, prof)
    return wall, events, prof, [r[0] for r in runs]


def traced_fig2(report_path: str | None):
    """One traced fig2 run through the analyzer; returns (summary, stats)."""
    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability
    from repro.obs.analyze import analyze_tracer, render_html

    obs = Observability(trace=True, causal=True)
    t0 = time.perf_counter()
    record, _stats, _traffic = run_fig2(obs=obs)
    run_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    summary = analyze_tracer(obs.tracer)
    analyze_wall = time.perf_counter() - t0

    if report_path:
        path = pathlib.Path(report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_html(summary))
        print(f"wrote {path}", file=sys.stderr)
    return summary, {
        "migration_time_s": record.migration_time,
        "run_wall_s": run_wall,
        "analyze_wall_s": analyze_wall,
        "trace_events": sum(r["events"] for r in summary["runs"]),
    }


#: ``Observability`` settings timed by :func:`obs_overhead`: every
#: channel off, then each channel on alone.
OBS_OFF = dict(trace=False, metrics=False)
OBS_CHANNELS = {
    "trace": dict(OBS_OFF, trace=True),
    "trace+causal": dict(OBS_OFF, trace=True, causal=True),
    "series": dict(OBS_OFF, series=True),
    "metrics": dict(OBS_OFF, metrics=True),
}

#: Rounds of :func:`obs_overhead` (after one warmup round).  A fig2 run
#: takes ~50 ms, so one run per setting is too noisy for a ratio.
OBS_ROUNDS = 7


def obs_overhead() -> dict:
    """Per-channel telemetry cost on the traced_fig2 cell.

    Runs ``run_fig2`` with every channel off and with each of
    :data:`OBS_CHANNELS` on alone, round-robin so load drift hits every
    setting alike, and reports each channel's median wall and its
    on/off ratio.  Reported, not gated: it carries no ``events_per_s``.
    """
    import gc

    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability

    settings = {"off": OBS_OFF, **OBS_CHANNELS}
    walls: dict[str, list[float]] = {name: [] for name in settings}
    for i in range(WARMUP_RUNS + OBS_ROUNDS):
        for name, kwargs in settings.items():
            obs = Observability(**kwargs)
            gc.collect()
            t0 = time.perf_counter()
            run_fig2(obs=obs)
            if i >= WARMUP_RUNS:
                walls[name].append(time.perf_counter() - t0)
    median = {name: sorted(w)[len(w) // 2] for name, w in walls.items()}
    return {
        "name": "obs_overhead",
        "wall_s": round(median["off"], 6),
        "channels": {
            name: {"wall_s": round(median[name], 6),
                   "ratio": round(median[name] / median["off"], 4)}
            for name in OBS_CHANNELS
        },
    }


def _git_head(root: pathlib.Path = REPO_ROOT) -> str | None:
    """Short hash of HEAD, suffixed ``-dirty`` when tracked files differ
    from it, so an entry measured on an uncommitted tree is told apart
    from one measured on its parent commit."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty",
             "--exclude=*"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or None
    except OSError:  # pragma: no cover - no git in PATH
        return None


def run_trajectory(quick: bool, report: str | None) -> dict:
    entry = {
        "schema": SCHEMA,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": _git_head(),
        "scenarios": [],
    }
    for name, fn in SCENARIOS:
        wall, events, prof, all_walls = _time_scenario(name, fn, quick)
        entry["scenarios"].append({
            "name": name,
            "wall_s": round(wall, 6),
            "wall_s_runs": [round(w, 6) for w in all_walls],
            "events": events,
            "events_per_s": round(events / wall, 1) if wall > 0 else None,
            "peak_rss_kb": _peak_rss_kb(),
            # Host self-profile from one extra (profiled) run: exclusive
            # wall per subsystem scope path, plus the deterministic work
            # counters ROADMAP item 1 must shrink (solver rounds, links
            # visited, scans).  The timed runs above stay unprofiled so
            # events_per_s tracks the raw kernel.
            "profile": {
                "wall_s": {
                    path: round(node["exclusive_s"], 6)
                    for path, node in prof.flat().items()
                },
                "counters": prof.counters,
            },
        })
        print(f"  {name:24s} {wall:8.3f} s   {events:>9} events   "
              f"(median of {TIMED_RUNS})")

    summary, fig2_stats = traced_fig2(report)
    entry["conservation_ok"] = summary["conservation_ok"]
    entry["critical_path_ok"] = summary.get("critical_path_ok", True)
    entry["scenarios"].append({
        "name": "traced_fig2_analyze",
        "wall_s": round(fig2_stats["run_wall_s"] + fig2_stats["analyze_wall_s"], 6),
        "analyze_wall_s": round(fig2_stats["analyze_wall_s"], 6),
        "events": fig2_stats["trace_events"],
        "migration_time_s": round(fig2_stats["migration_time_s"], 6),
        "peak_rss_kb": _peak_rss_kb(),
    })
    print(f"  {'traced_fig2_analyze':24s} "
          f"{fig2_stats['run_wall_s'] + fig2_stats['analyze_wall_s']:8.3f} s   "
          f"{fig2_stats['trace_events']:>9} events")
    print(f"  conservation: {'exact' if entry['conservation_ok'] else 'FAILED'}")
    print("  critical path: "
          f"{'exact' if entry['critical_path_ok'] else 'FAILED'}")

    overhead = obs_overhead()
    entry["scenarios"].append(overhead)
    print(f"  {'obs_overhead':24s} {overhead['wall_s']:8.3f} s off   "
          + "  ".join(f"{name} x{ch['ratio']:.2f}"
                      for name, ch in overhead["channels"].items()))
    return entry


#: Events/sec may regress by at most this much vs. the previous entry.
GATE_REGRESSION = 0.30


def _aggregate_events_per_s(entry: dict) -> float | None:
    """Lifetime events over lifetime wall across the kernel scenarios.

    Only scenarios reporting ``events_per_s`` participate (the maxmin
    scenario counts recompute rounds, the traced run measures the
    analyzer, not the kernel) — the aggregate tracks raw simulator
    throughput, which is what the gate protects.
    """
    events = 0
    wall = 0.0
    for sc in entry.get("scenarios", []):
        if sc.get("events_per_s") is None:
            continue
        events += sc.get("events", 0)
        wall += sc.get("wall_s", 0.0)
    if wall <= 0 or events == 0:
        return None
    return events / wall


def check_regression(entry: dict, history: list) -> str | None:
    """Gate: >GATE_REGRESSION drop in aggregate events/sec vs. the most
    recent previous entry of the same mode fails the run.

    Returns an error string on regression, None when the gate passes
    (including when there is no comparable history yet).
    """
    current = _aggregate_events_per_s(entry)
    if current is None:
        return None
    previous = None
    for old in reversed(history):
        if old.get("mode") == entry.get("mode") and old is not entry:
            previous = _aggregate_events_per_s(old)
            if previous is not None:
                break
    if previous is None:
        print("  gate: no previous entry to compare against", file=sys.stderr)
        return None
    ratio = current / previous
    print(f"  gate: {current:,.0f} events/s vs previous {previous:,.0f} "
          f"({100 * (ratio - 1):+.1f}%)", file=sys.stderr)
    if ratio < 1.0 - GATE_REGRESSION:
        return (
            f"events/sec regressed {100 * (1 - ratio):.1f}% "
            f"(current {current:,.0f}, previous {previous:,.0f}, "
            f"allowed {100 * GATE_REGRESSION:.0f}%)"
        )
    return None


def _links_per_solve(entry: dict) -> float | None:
    """``maxmin.links_visited`` per solver invocation in the maxmin
    scenario — the deterministic work metric behind the wall-clock."""
    for sc in entry.get("scenarios", []):
        if sc.get("name") != "maxmin_fast_path":
            continue
        counters = sc.get("profile", {}).get("counters", {})
        links = counters.get("maxmin.links_visited")
        invocations = counters.get("maxmin.invocations")
        if links and invocations:
            return links / invocations
    return None


def check_links_regression(entry: dict, history: list) -> str | None:
    """Gate: links visited per maxmin solve may grow at most
    ``GATE_REGRESSION`` vs. the previous same-mode entry.

    Wall-clock gates tolerate noisy machines; this one is deterministic —
    a breach means the incremental solver genuinely lost caching or
    compaction, not that the CI runner was busy.  Entries predating the
    counter (or with profiling off) are skipped.
    """
    current = _links_per_solve(entry)
    if current is None:
        return None
    previous = None
    for old in reversed(history):
        if old.get("mode") == entry.get("mode") and old is not entry:
            previous = _links_per_solve(old)
            if previous is not None:
                break
    if previous is None:
        return None
    print(f"  links/solve gate: {current:,.1f} vs previous {previous:,.1f}",
          file=sys.stderr)
    if current > previous * (1.0 + GATE_REGRESSION):
        return (
            f"maxmin.links_visited per solve regressed "
            f"{100 * (current / previous - 1):.1f}% "
            f"(current {current:,.1f}, previous {previous:,.1f}, "
            f"allowed {100 * GATE_REGRESSION:.0f}%)"
        )
    return None


def _previous_same_mode(entry: dict, history: list) -> dict | None:
    for old in reversed(history):
        if old.get("mode") == entry.get("mode") and old is not entry:
            return old
    return None


def explain_regression(entry: dict, history: list, top: int = 8) -> str | None:
    """The ranked delta table attributing a gate failure.

    Runs the ``repro.obs.diff`` engine between the previous same-mode
    entry and this one, so a tripped gate names the scenarios, profiler
    scopes and work counters that moved instead of a bare percentage.
    Returns None when there is no comparable history.
    """
    previous = _previous_same_mode(entry, history)
    if previous is None:
        return None
    from repro.obs.diff import (
        artifact_from_bench_entry,
        diff_artifacts,
        render_diff_text,
    )

    doc = diff_artifacts(
        artifact_from_bench_entry(previous, "previous entry"),
        artifact_from_bench_entry(entry, "this entry"),
    )
    return render_diff_text(doc, top=top)


def append_entry(out_path: pathlib.Path, entry: dict) -> list:
    """Append ``entry`` to the trajectory file; returns the new history."""
    history = []
    if out_path.exists():
        try:
            history = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            print(f"warning: {out_path} was not valid JSON; starting fresh",
                  file=sys.stderr)
        if not isinstance(history, list):
            history = []
    history.append(entry)
    out_path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    return history


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced geometry for a fast CI run")
    parser.add_argument("--out", metavar="PATH",
                        default=str(REPO_ROOT / "BENCH_simulator.json"),
                        help="trajectory file to append to "
                             "(default: BENCH_simulator.json at repo root)")
    parser.add_argument("--report", metavar="OUT.html", default=None,
                        help="also write the traced run's HTML flight report")
    parser.add_argument("--no-gate", action="store_true",
                        help="record the entry but never fail on an "
                             "events/sec regression (for noisy machines)")
    args = parser.parse_args(argv)

    print(f"trajectory ({'quick' if args.quick else 'full'} mode):")
    entry = run_trajectory(args.quick, args.report)
    out_path = pathlib.Path(args.out)
    history = append_entry(out_path, entry)
    print(f"appended entry to {out_path}", file=sys.stderr)
    rc = 0
    if not entry["conservation_ok"]:
        print("error: byte-attribution conservation check failed",
              file=sys.stderr)
        rc = 1
    if not entry["critical_path_ok"]:
        print("error: critical-path conservation check failed",
              file=sys.stderr)
        rc = 1
    tripped = False
    for gate in (check_regression, check_links_regression):
        regression = gate(entry, history)
        if regression is not None:
            print(f"error: {regression}", file=sys.stderr)
            tripped = True
            if args.no_gate:
                print("(--no-gate: recorded but not failing)", file=sys.stderr)
            else:
                rc = 1
    if tripped:
        # Attribute the regression: which scenarios, scopes and counters
        # moved against the previous same-mode entry, ranked by |delta|.
        explanation = explain_regression(entry, history)
        if explanation is not None:
            print(explanation, file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
