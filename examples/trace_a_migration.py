#!/usr/bin/env python
"""Trace a live migration and inspect what the simulator did, event by
event.

The ``repro.obs`` subsystem threads a tracer and a metrics registry
through every layer of the stack — kernel processes, network flows,
push/prefetch/on-demand storage traffic, memory pre-copy rounds, the
downtime window, repository stripe fetches.  This example:

1. runs one hybrid migration under IOR pressure with tracing on,
2. writes a Chrome trace-event file (open it at https://ui.perfetto.dev)
   and a metrics JSON dump,
3. prints the headline numbers straight from the in-memory objects,
4. feeds the trace to ``repro.obs.analyze`` and prints the per-cause
   byte attribution — *why* each byte crossed the wire — plus the
   conservation check against the TrafficMeter total.

Run:  python examples/trace_a_migration.py
"""

import json
import tempfile
from pathlib import Path

from repro.experiments.scenarios import run_single_migration
from repro.obs import Observability


def main() -> None:
    # trace=True records events; detail="full" would additionally log
    # every process resume and control message.
    obs = Observability(trace=True, metrics=True, detail="normal")

    outcome = run_single_migration(
        "our-approach", workload="ior", warmup=10.0, seed=0, obs=obs,
    )

    outdir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    trace_path = outdir / "migration.trace.json"
    metrics_path = outdir / "migration.metrics.json"
    obs.write(trace_path=trace_path, metrics_path=metrics_path)

    print("migration traced")
    print(f"  migration time : {outcome.migration_time:6.2f} s")
    print(f"  trace file     : {trace_path}")
    print(f"  metrics file   : {metrics_path}")
    print()

    # -- the trace: typed events stamped with simulation time ------------
    events = obs.tracer.events
    spans = [e for e in events if e["ph"] == "X"]
    print(f"{len(events)} trace events recorded, {len(spans)} complete spans")
    print("busiest span types:")
    by_name: dict[str, int] = {}
    for e in spans:
        by_name[e["name"]] = by_name.get(e["name"], 0) + 1
    for name, n in sorted(by_name.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {name:20s} x{n}")
    print()

    # -- the metrics: per-run counter/gauge/histogram snapshots ----------
    run_label, snapshot = next(iter(obs.runs.items()))
    counters = snapshot["counters"]
    print(f"metrics for run {run_label!r}:")
    for key in ("push.batch.chunks", "push.hot_exclusion.chunks",
                "prefetch.batch.chunks", "adopt.chunks",
                "migration.memory_rounds"):
        if key in counters:
            print(f"  {key:24s} {counters[key]:,.0f}")
    downtime = snapshot["histograms"].get("downtime")
    if downtime:
        print(f"  {'downtime (ms)':24s} {downtime['mean'] * 1000:,.1f}")
    print()

    # The file on disk is plain Chrome trace-event JSON.
    with open(trace_path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"], "trace round-trips through json"
    print(f"trace file holds {len(doc['traceEvents'])} events "
          "(load it in Perfetto for the timeline view)")
    print()

    # -- the analyzer: why each byte crossed the wire --------------------
    from repro.obs.analyze import analyze_file, render_html
    from repro.obs.analyze.report import cause_table

    summary = analyze_file(trace_path)
    run = summary["runs"][0]
    print(f"byte attribution for run {run['label']!r}:")
    print(f"  {'cause':14s} {'bytes':>14s} {'share':>7s} {'flows':>6s}")
    for cause, nbytes, share, flows, _busy in cause_table(run):
        print(f"  {cause:14s} {nbytes:14,.0f} {100 * share:6.1f}% {flows:6d}")
    cons = run["attribution"]["metered"]["conservation"]
    status = "exact" if cons["exact"] else "VIOLATED"
    print(f"  conservation   {status}: causes sum to "
          f"{cons['total_bytes']:,.0f} bytes metered")

    report_path = outdir / "flight-report.html"
    report_path.write_text(render_html(summary))
    print(f"  HTML report    : {report_path}")


if __name__ == "__main__":
    main()
