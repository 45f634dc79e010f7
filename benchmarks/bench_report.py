"""Meta-benchmarks: the flight-recorder analyzer and report renderer.

Companion to ``trajectory.py``: where that script times the simulator
itself, this one times what happens *after* a run — ingesting a traced
migration's event stream, deriving the attribution/phase/heatmap
summary, and rendering the HTML report.  The trace is produced once per
session (a real hybrid migration under write pressure) and shared.

Run directly, it instead renders the whole ``BENCH_simulator.json``
trajectory as per-scenario history tables (wall, events/s and the key
work counters across every recorded entry — not just the latest)::

    PYTHONPATH=src python benchmarks/bench_report.py [BENCH_simulator.json]
"""

import pytest

MB = 2**20


@pytest.fixture(scope="module")
def traced_events():
    """Chrome-trace events from one traced hybrid migration."""
    from repro.cluster import CloudMiddleware, Cluster
    from repro.experiments.config import graphene_spec
    from repro.obs import Observability
    from repro.obs.export import chrome_trace
    from repro.simkernel import Environment
    from repro.workloads.synthetic import SequentialWriter

    obs = Observability(trace=True)
    with obs.run_scope("bench/report"):
        env = Environment()
        obs.install(env)
        cloud = CloudMiddleware(Cluster(env, graphene_spec(8)))
        vm = cloud.deploy("vm0", cloud.cluster.node(0), working_set=128 * MB)
        SequentialWriter(
            vm, total_bytes=256 * MB, rate=60e6, op_size=4 * MB,
            region_offset=1024 * MB, region_size=256 * MB,
        ).start()
        done = {}

        def migrator():
            yield env.timeout(2.0)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run()
        obs.note_traffic(cloud.cluster.fabric.meter)
    return chrome_trace(obs.tracer)["traceEvents"]


def test_analyze_trace(benchmark, traced_events):
    """Full analysis pass: attribution + phases + heatmap per run."""
    from repro.obs.analyze import analyze_events

    summary = benchmark(analyze_events, traced_events)
    assert summary["conservation_ok"]
    assert summary["runs"]


def test_summary_json(benchmark, traced_events):
    """Deterministic JSON encoding of the summary."""
    from repro.obs.analyze import analyze_events, summary_json

    summary = analyze_events(traced_events)
    text = benchmark(summary_json, summary)
    assert text == summary_json(summary)  # stable across calls


def test_render_html(benchmark, traced_events):
    """Self-contained HTML report generation (inline SVG charts)."""
    from repro.obs.analyze import analyze_events, render_html

    summary = analyze_events(traced_events)
    html = benchmark(render_html, summary)
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html


# -- trajectory history rendering (plain script mode) --------------------------

#: Counters worth a history column, per scenario, most informative first.
_KEY_COUNTERS = 3


def _entry_label(entry: dict) -> str:
    git = entry.get("git")
    ts = (entry.get("timestamp") or "")[:10]
    return f"{git} {ts}".strip() if git else (ts or "entry")


def _scenario_counters(entries: list[dict], name: str) -> list[str]:
    """The key counters for one scenario: those present in the most
    recent entry that has any, largest values first."""
    for entry in reversed(entries):
        for sc in entry.get("scenarios", []):
            if sc.get("name") != name:
                continue
            counters = sc.get("profile", {}).get("counters", {})
            if counters:
                ranked = sorted(counters, key=lambda k: (-counters[k], k))
                return ranked[:_KEY_COUNTERS]
    return []


def render_history(history: list[dict]) -> str:
    """Per-scenario history tables over every trajectory entry."""
    names: list[str] = list(dict.fromkeys(
        sc.get("name")
        for entry in history
        for sc in entry.get("scenarios", [])
    ))
    lines = [f"== BENCH trajectory: {len(history)} entries"]
    for name in names:
        counters = _scenario_counters(history, name)
        header = ("entry".ljust(20) + "mode".rjust(7) + "wall_s".rjust(10)
                  + "events".rjust(11) + "events/s".rjust(12))
        for c in counters:
            header += c.split(".")[-1].rjust(16)
        lines.append(f"-- {name}")
        lines.append(header)
        for entry in history:
            for sc in entry.get("scenarios", []):
                if sc.get("name") != name:
                    continue
                row = (_entry_label(entry)[:19].ljust(20)
                       + str(entry.get("mode", "?")).rjust(7))
                wall = sc.get("wall_s")
                row += (f"{wall:.3f}".rjust(10) if wall is not None
                        else "-".rjust(10))
                events = sc.get("events")
                row += (f"{events:,}".rjust(11) if events is not None
                        else "-".rjust(11))
                eps = sc.get("events_per_s")
                row += (f"{eps:,.0f}".rjust(12) if eps is not None
                        else "-".rjust(12))
                sc_counters = sc.get("profile", {}).get("counters", {})
                for c in counters:
                    value = sc_counters.get(c)
                    row += (f"{value:,}".rjust(16) if value is not None
                            else "-".rjust(16))
                lines.append(row)
        lines.append("")
    return "\n".join(lines).rstrip()


def main(argv=None) -> int:
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(
        description="render the BENCH trajectory as per-scenario history "
                    "tables")
    parser.add_argument(
        "trajectory", nargs="?",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_simulator.json"),
        help="trajectory file (default: BENCH_simulator.json at repo root)")
    args = parser.parse_args(argv)
    path = pathlib.Path(args.trajectory)
    if not path.exists():
        print(f"error: {path} does not exist — run "
              "benchmarks/trajectory.py first", file=sys.stderr)
        return 2
    history = json.loads(path.read_text())
    if not isinstance(history, list) or not history:
        print(f"error: {path} holds no trajectory entries", file=sys.stderr)
        return 2
    print(render_history(history))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
