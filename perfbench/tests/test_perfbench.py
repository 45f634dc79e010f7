"""Self-tests of the benchmark: inputs, output checks, tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cells  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from cells import Cell, cells_for, trigger_pool  # noqa: E402
from pins import load_pins, round9  # noqa: E402

#: One cheap cell per workload (``observed`` runs ``solo``'s cells).
ONE_CELL = {
    "solo": Cell("single", "ior", "our-approach", trigger_pool(10.0)[0]),
    "observed": Cell("single", "ior", "our-approach", trigger_pool(10.0)[0]),
    "crowd": Cell("concurrent", "asyncwr", "our-approach",
                  trigger_pool(30.0)[0]),
    "ensemble": Cell("cm1", "cm1", "our-approach", None),
}


@pytest.fixture(scope="module")
def pins():
    return load_pins()


def test_same_seed_same_cells_and_every_cell_pinned(pins):
    pinnable = set()
    for workload in cells.WORKLOADS:
        keys = {cell.key for cell in cells.all_cells(workload)}
        pinnable |= keys
        draws = set()
        for seed in range(40):
            generated = cells_for(workload, seed)
            assert generated == cells_for(workload, seed)
            assert {cell.key for cell in generated} <= keys
            draws.add(tuple(cell.key for cell in generated))
        assert len(draws) > 1, f"{workload} ignores its seed"
    assert pinnable == set(pins), "missing or stale pins"


def test_pins_reproduce_under_the_reference_kernel():
    """The pins hold the model, not the fast kernel's scheduling."""
    program = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
        "from cells import Cell\n"
        "from pins import load_pins\n"
        "from run import run_pass\n"
        "from repro.simkernel.core import Environment\n"
        "out = {'kernel': Environment().kernel}\n"
        "for workload, args in json.loads(sys.argv[1]).items():\n"
        "    r = run_pass(workload, [Cell(*args)], load_pins())\n"
        "    out[workload] = [r.attempted, r.failed, r.reasons]\n"
        "print(json.dumps(out))\n"
    )
    cells_arg = json.dumps({w: [c.builder, c.kind, c.approach, c.trigger]
                            for w, c in ONE_CELL.items()})
    proc = subprocess.run(
        [sys.executable, "-c", program, cells_arg], cwd=ROOT,
        env={**os.environ, "REPRO_KERNEL": "reference"},
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result.pop("kernel") == "reference"
    assert result == {w: [1, 0, []] for w in ONE_CELL}


def test_divergent_or_raising_cell_counts_as_failed(pins, monkeypatch):
    cell = ONE_CELL["solo"]
    other = cells_for("solo", 0)[1]
    bent = dict(pins)
    bent[cell.key] = {**pins[cell.key],
                      "migration_times": [t + 1.0 for t in
                                          pins[cell.key]["migration_times"]]}
    result = run.run_pass("solo", [cell, other], bent)
    assert (result.attempted, result.failed) == (2, 1)
    assert "migration_times" in result.reasons[0]

    def boom(c, obs=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(cells, "run_cell", boom)
    result = run.run_pass("solo", [cell], pins)
    assert (result.attempted, result.failed) == (1, 1)
    assert "injected" in result.reasons[0]


def test_observed_cell_passes_its_conservation_checks(pins):
    result = run.run_pass("observed", [ONE_CELL["observed"]], pins)
    assert (result.attempted, result.failed) == (1, 0), result.reasons


def test_traced_pass_is_balanced_repeatable_and_restores(pins):
    from repro.obs import Profiler
    from repro.simkernel.core import Environment

    step = Environment.__dict__["step"]
    cell = ONE_CELL["crowd"]
    untraced = run.run_pass("crowd", [cell], pins)
    seen = []
    for _ in range(2):
        prof = Profiler()
        with layers.LayerTracer() as tracer:
            result = run.run_pass("crowd", [cell], pins, profiler=prof)
        assert Environment.__dict__["step"] is step
        assert result.failed == 0, result.reasons
        assert layers.conservation_error(tracer, result.wall_s) < 1e-6
        seen.append(dict(prof.counters))
    assert seen[0] == seen[1]
    table = layers.layer_metrics(tracer, seen[1], result.wall_s,
                                 untraced.wall_s)
    assert set(table) == set(layers.UNITS)
    attributed = sum(table[f"{x}.self_s"] for x in layers.LAYERS)
    assert attributed + table["trace.unattributed_s"] == pytest.approx(
        result.wall_s, rel=1e-9)
    assert 0 <= table["trace.unattributed_s"] < 0.1 * result.wall_s
    assert run.trace_problems(tracer, result.wall_s, table, *seen) == []
    for share in (run.UNATTRIBUTED_LIMIT, -0.01):
        lost = {**table, "trace.unattributed_s": share * result.wall_s}
        problems = run.trace_problems(tracer, result.wall_s, lost, *seen)
        assert len(problems) == 1 and "unattributed" in problems[0]
    moved = {**seen[1], "fabric.flows_touched": -1}
    problems = run.trace_problems(tracer, result.wall_s, table, seen[0], moved)
    assert len(problems) == 1 and "fabric.flows_touched" in problems[0]
    assert table["cluster.migrations"] == cells.CROWD_MIGRATIONS
    assert table["netsim.transfers"] > 0 and table["simkernel.events"] > 0


def test_benchmark_json_names_match_the_emitted_metrics(pins):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    _, metrics = run.run_untraced("solo", [ONE_CELL["solo"]], pins, 0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert all(m["value"] > 0 for m in metrics.values())


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solo", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        check=False, env={k: v for k, v in os.environ.items()
                          if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_round9_matches_the_golden_convention():
    assert round9({"a": [1 / 3, 2]}) == {"a": [0.333333333, 2]}
