"""Paper-scale host-cost benchmark of the simulator.

Runs one workload (see ``README.md``) as repeated passes over a fixed batch
of simulation cells in this single process, checks every cell's simulated
outputs against ``pins/``, and prints one JSON result as the last line of
standard output::

    python3 perfbench/run.py --workload crowd --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics with every wrapper off.
``--trace 1`` times one untraced pass, then two passes under the
outside-in layer tracer (``layers.py``) plus the ``repro.obs.prof`` work
counters, and reports the per-layer table of the first traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Passes a trace-0 run always makes, however long one pass takes.
MIN_PASSES = 3
#: A traced pass must attribute to a layer all but this share of its wall
#: time; a larger (or negative) remainder fails the run's self-check.
UNATTRIBUTED_LIMIT = 0.10
#: Tolerance of the span bookkeeping self-check (relative to the wall).
CONSERVATION_TOL = 1e-6


@dataclass
class PassResult:
    """One pass over a workload's cells."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    migration_times: list[float] = field(default_factory=list)
    traffic_bytes: float = 0.0
    reasons: list[str] = field(default_factory=list)


def _observed_failures(obs, labels: list[str]) -> dict[str, list[str]]:
    """Run the offline analyzers; per run label, the conservation checks
    that failed (byte attribution, critical path, series integral)."""
    # Looked up at call time, so the traced run's wrappers see the calls.
    import repro.obs.analyze as analyze
    from repro.obs.causal import critical_path_summary
    from repro.obs.export import chrome_trace

    summary = analyze.analyze_tracer(obs.tracer)
    critical = critical_path_summary(chrome_trace(obs.tracer)["traceEvents"])
    series = obs.series.summary()
    analyze.render_html(summary, series=series)
    bad: dict[str, list[str]] = {label: [] for label in labels}
    seen = {label: set() for label in labels}
    for run in summary["runs"]:
        metered = run["attribution"]["metered"]
        if run["label"] in bad:
            seen[run["label"]].add("analyze")
            if metered is None or not metered["conservation"]["exact"]:
                bad[run["label"]].append("byte attribution")
    for run in critical["runs"]:
        if run["label"] in bad:
            seen[run["label"]].add("critical")
            if not all(a["conservation"]["exact"] for a in run["attempts"]):
                bad[run["label"]].append("critical path")
    for run in series["runs"]:
        if run["label"] in bad:
            seen[run["label"]].add("series")
            verdict = run["conservation"]
            if verdict is None or not verdict["ok"]:
                bad[run["label"]].append("series integral")
    for label in labels:
        missing = {"analyze", "critical", "series"} - seen[label]
        bad[label].extend(f"no {m} run" for m in sorted(missing))
    return bad


def run_pass(workload: str, cells, pins, profiler=None) -> PassResult:
    """Run every cell once, timed; then check each cell's outputs."""
    from cells import digest, make_observability, run_cell
    from pins import mismatch

    obs = make_observability(workload, profiler)
    outputs: list = []
    labels: list = []
    gc.collect()
    t0 = time.perf_counter()
    for cell in cells:
        try:
            outputs.append(digest(run_cell(cell, obs)))
        except Exception:  # a raising cell is counted as failed, never dropped
            outputs.append(traceback.format_exc())
        if workload == "observed":
            labels.append(list(obs.runs)[-1])
    observed_bad = (_observed_failures(obs, labels)
                    if workload == "observed" else {})
    result = PassResult(wall_s=time.perf_counter() - t0)

    for i, (cell, out) in enumerate(zip(cells, outputs)):
        result.attempted += 1
        if isinstance(out, str):
            reasons = [f"{cell.key}: raised\n{out}"]
        else:
            result.migration_times.extend(out["migration_times"])
            result.traffic_bytes += sum(out["traffic_by_tag"].values())
            reason = mismatch(pins, cell.key, out)
            reasons = [reason] if reason else []
            if labels:
                reasons += [f"{cell.key}: {what} not conserved"
                            for what in observed_bad[labels[i]]]
        if reasons:
            result.failed += 1
            result.reasons.extend(reasons)
    return result


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh processes (seconds each)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload: str, cells, pins, seed: int,
                 seconds: float) -> tuple[list[PassResult], dict]:
    """Trace 0: timed passes until ``seconds`` would be exceeded."""
    setup = measure_setup(workload, seed)
    from cells import make_observability, run_cell

    # Warm imports and lazily built tables on the first cell, untimed.
    run_cell(cells[0], make_observability(workload))
    passes: list[PassResult] = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, cells, pins))
        elapsed = time.perf_counter() - t_start
        if (len(passes) >= MIN_PASSES
                and elapsed + passes[-1].wall_s > seconds):
            break
    walls = [p.wall_s for p in passes]
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "cell_pass_ratio": _metric(1.0 - failed / attempted, "fraction"),
        "sim_migration_s": _metric(
            statistics.fmean(first.migration_times)
            if first.migration_times else 0.0, "sim_s"),
        "sim_traffic_gb": _metric(first.traffic_bytes / 2**30, "GiB"),
    }
    print(f"{workload}: {len(passes)} passes, wall_s samples "
          f"{[round(w, 4) for w in walls]}, setup_s samples "
          f"{[round(s, 4) for s in setup]}", file=sys.stderr)
    return passes, metrics


def trace_problems(tracer, wall_s: float, metrics: dict, counters: dict,
                   counters_again: dict) -> list[str]:
    """The traced run's self-check failures (empty when all hold): span
    bookkeeping balanced, unattributed share within
    ``UNATTRIBUTED_LIMIT``, prof counters equal across the two passes."""
    from layers import conservation_error

    problems = []
    if counters != counters_again:
        moved = sorted(k for k in counters.keys() | counters_again.keys()
                       if counters.get(k) != counters_again.get(k))
        problems.append(f"prof work counters differ between two traced "
                        f"passes: {moved}")
    gap = conservation_error(tracer, wall_s)
    if gap > CONSERVATION_TOL:
        problems.append(f"layer self times do not sum to the traced span "
                        f"time (gap {gap:.2e} of the wall)")
    share = metrics["trace.unattributed_s"] / wall_s
    if not 0.0 <= share < UNATTRIBUTED_LIMIT:
        problems.append(f"{share:.1%} of the traced wall is unattributed "
                        f"(allowed: 0 to {UNATTRIBUTED_LIMIT:.0%})")
    return problems


def run_traced(workload: str, cells, pins) -> tuple[list[PassResult], dict,
                                                     list[str]]:
    """Trace 1: one untraced pass, then two traced passes of the same
    cells; returns the passes, the per-layer table and self-check
    failures."""
    from cells import make_observability, run_cell
    from layers import UNITS, LayerTracer, layer_metrics

    from repro.obs import Profiler

    run_cell(cells[0], make_observability(workload))
    untraced = run_pass(workload, cells, pins)
    traced = []
    for _ in range(2):
        prof = Profiler()
        with LayerTracer() as tracer:
            result = run_pass(workload, cells, pins, profiler=prof)
        traced.append((result, tracer, dict(prof.counters)))
    (first, tracer, counters), (_, _, counters_again) = traced
    metrics = layer_metrics(tracer, counters, first.wall_s, untraced.wall_s)
    problems = trace_problems(tracer, first.wall_s, metrics, counters,
                              counters_again)
    table = {name: _metric(metrics[name], unit)
             for name, unit in UNITS.items()}
    return [untraced] + [r for r, _, _ in traced], table, problems


def main(argv: list[str] | None = None) -> int:
    from cells import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from cells import cells_for
    from pins import load_pins

    pins = load_pins()
    if not pins:
        print("error: no pinned reference outputs under perfbench/pins",
              file=sys.stderr)
        return 2
    cells = cells_for(args.workload, args.seed)
    problems: list[str] = []
    if args.trace:
        passes, metrics, problems = run_traced(args.workload, cells, pins)
    else:
        passes, metrics = run_untraced(args.workload, cells, pins, args.seed,
                                       args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for reason in sorted({r for p in passes for r in p.reasons}):
        print(f"FAIL {reason}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL self-check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    sys.exit(main())
