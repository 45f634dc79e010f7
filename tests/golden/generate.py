"""Golden-fixture generation for the figure reproductions.

Each ``fig*_golden()`` function runs a small but structure-preserving
variant of one paper figure (fault-free, fixed seed) and reduces the
outcome to a plain JSON-serializable dict.  The committed fixtures under
``tests/golden/fixtures/`` pin these numbers: any engine refactor that
shifts the paper-reproduction results fails ``test_golden_figures.py``.

Regenerate (only after an *intentional* behavior change)::

    PYTHONPATH=src python -m tests.golden.generate

Floats are rounded to 9 significant digits before serialization so the
comparison is byte-stable without being hostage to sub-nano relative
float noise across numpy builds.
"""

from __future__ import annotations

import json
import pathlib

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Golden geometry for fig4: the full figure needs 30 sources to show
#: backplane contention; pinning engine behavior only needs the
#: concurrent-migration structure, so the fleet is shrunk.
FIG4_LEVELS = (1, 2)
FIG4_SOURCES = 4


def _round(node):
    """Round every float to 9 significant digits, recursively."""
    if isinstance(node, float):
        return float(f"{node:.9g}")
    if isinstance(node, dict):
        return {k: _round(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round(v) for v in node]
    return node


def canonical_json(obj) -> str:
    return json.dumps(_round(obj), indent=2, sort_keys=True) + "\n"


def strip_kernel_introspection(doc):
    """Drop ``kernel.*`` signals from a series document.

    Those gauges deliberately observe scheduler internals (ready-list
    depth, heap size), which legitimately differ between the fast and
    reference kernels; every other signal is simulation-time data and
    must still match bitwise.
    """
    for run in doc.get("runs", []):
        for name in [n for n in run["signals"] if n.startswith("kernel.")]:
            del run["signals"][name]
    return doc


def _outcome_digest(outcome) -> dict:
    """The ScenarioOutcome fields the figures consume."""
    return {
        "migration_times": list(outcome.migration_times),
        "downtimes": list(outcome.downtimes),
        "total_traffic": outcome.total_traffic(),
        "migration_traffic": outcome.migration_traffic,
        "read_throughput": outcome.read_throughput,
        "write_throughput": outcome.write_throughput,
        "window_write_rate": outcome.window_write_rate,
        "workload_elapsed": outcome.workload_elapsed,
    }


def fig2_golden(obs=None) -> dict:
    from repro.experiments.fig2 import run_fig2

    record, stats, traffic = run_fig2("our-approach", seed=0, obs=obs)
    return {
        "phases": [[name, start, end] for name, start, end in record.phases],
        "control_at": record.control_at,
        "released_at": record.released_at,
        "downtime": record.downtime,
        "memory_rounds": record.memory_rounds,
        "memory_bytes": record.memory_bytes,
        "stats": stats,
        "traffic_by_tag": dict(traffic),
    }


def fig3_golden(obs=None) -> dict:
    from repro.experiments.fig3 import run_fig3

    results = run_fig3(quick=True, seed=0, obs=obs)
    return {
        workload: {
            approach: _outcome_digest(outcome)
            for approach, outcome in per_approach.items()
        }
        for workload, per_approach in results.items()
    }


def fig4_golden(obs=None) -> dict:
    from repro.experiments.fig4 import run_fig4

    results = run_fig4(
        levels=FIG4_LEVELS, n_sources=FIG4_SOURCES, quick=True, seed=0,
        obs=obs,
    )
    return {
        approach: {
            str(n): {
                "outcome": _outcome_digest(outcome),
                "degradation": outcome.degradation_vs(baseline),
            }
            for n, (outcome, baseline) in per_level.items()
        }
        for approach, per_level in results.items()
    }


def fig5_golden(obs=None) -> dict:
    from repro.experiments.fig5 import run_fig5

    results = run_fig5(quick=True, seed=0, obs=obs)
    return {
        approach: {
            str(n): {
                "cumulated_migration_time": outcome.cumulated_migration_time,
                "migration_traffic": outcome.migration_traffic,
                "elapsed_increase": (
                    outcome.workload_elapsed - baseline.workload_elapsed
                ),
            }
            for n, (outcome, baseline) in per_count.items()
        }
        for approach, per_count in results.items()
    }


#: What-if scenarios priced into the critical-path golden (resource, factor
#: as accepted by ``repro critical-path --what-if``).
CRITICAL_PATH_WHAT_IFS = ("nic=2", "storage=2")


def fig2_critical_path_golden() -> dict:
    """The full ``repro critical-path`` document for a causal fig2 run.

    Pins the happens-before recording, the critical-path extraction and
    the what-if pricing end to end: the same document the CLI emits for
    ``repro fig2 --causal --trace t.json`` + ``repro critical-path
    t.json --json`` (modulo the 9-sig-digit rounding applied to every
    fixture; ``check_critical_path.py`` applies it to both sides).
    """
    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability
    from repro.obs.causal import critical_path_summary, parse_what_if
    from repro.obs.export import chrome_trace

    obs = Observability(trace=True, causal=True)
    run_fig2("our-approach", seed=0, obs=obs)
    events = chrome_trace(obs.tracer)["traceEvents"]
    specs = [parse_what_if(s) for s in CRITICAL_PATH_WHAT_IFS]
    return critical_path_summary(events, specs)


def _fig2_analyze_summary(approach: str, kernel: str | None = None) -> dict:
    """The flight-recorder summary of one causal fig2 run.

    Everything in the summary is simulation-time data (bytes, sim
    seconds, event counts), so it is deterministic across hosts — safe
    fixture material, unlike profiler wall-clock.
    """
    import contextlib

    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability
    from repro.obs.analyze import analyze_tracer
    from repro.simkernel import kernel_scope

    obs = Observability(trace=True, causal=True)
    scope = kernel_scope(kernel) if kernel else contextlib.nullcontext()
    with scope:
        run_fig2(approach, seed=0, obs=obs)
    return analyze_tracer(obs.tracer)


def fig2_summary_fast_golden() -> dict:
    return _fig2_analyze_summary("our-approach", kernel="fast")


def fig2_summary_reference_golden() -> dict:
    """Must be byte-identical to the fast-kernel summary — the two
    kernels guarantee bit-identical simulation output, and this fixture
    pair pins that guarantee at the artifact level."""
    return _fig2_analyze_summary("our-approach", kernel="reference")


def fig2_summary_precopy_golden() -> dict:
    return _fig2_analyze_summary("precopy")


def fig2_series_golden() -> dict:
    """The ``repro.series/1`` document for a fig2 run.

    Pins every probe the series recorder owns — remaining-set drain,
    per-tag byte curves, dirty-rate samples, kernel depth — plus the
    per-run conservation verdict.  Like the analyze summaries, the
    document is pure simulation-time data, so it is deterministic
    across hosts.
    """
    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability

    obs = Observability(trace=False, metrics=False, series=True)
    run_fig2("our-approach", seed=0, obs=obs)
    return obs.series.summary()


def _diff_fixture(name_a: str, name_b: str) -> dict:
    """Diff two already-generated summary fixtures (committed inputs ->
    committed output, exactly what CI's diff-smoke job replays)."""
    from repro.obs.diff import diff_files

    return diff_files(FIXTURES / f"{name_a}.json", FIXTURES / f"{name_b}.json")


def fig2_diff_kernels_golden() -> dict:
    """fast vs reference kernel: the all-zero delta (differential
    testing surfaced as a diff artifact)."""
    return _diff_fixture("fig2_summary_fast", "fig2_summary_reference")


def fig2_diff_precopy_golden() -> dict:
    """our-approach vs precopy: a real, ranked, exactly-conserving
    delta (the hybrid scheme's Fig 2 argument as a diff document)."""
    return _diff_fixture("fig2_summary_fast", "fig2_summary_precopy")


# Diff goldens consume the summary fixtures, so generation order matters.
GOLDENS = {
    "fig2": fig2_golden,
    "fig2_critical_path": fig2_critical_path_golden,
    "fig3": fig3_golden,
    "fig4": fig4_golden,
    "fig5": fig5_golden,
    "fig2_summary_fast": fig2_summary_fast_golden,
    "fig2_summary_reference": fig2_summary_reference_golden,
    "fig2_summary_precopy": fig2_summary_precopy_golden,
    "fig2_series": fig2_series_golden,
    "fig2_diff_kernels": fig2_diff_kernels_golden,
    "fig2_diff_precopy": fig2_diff_precopy_golden,
}


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, build in GOLDENS.items():
        path = FIXTURES / f"{name}.json"
        path.write_text(canonical_json(build()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
