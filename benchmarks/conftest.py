"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one table/figure of the paper: it runs
the corresponding experiment under ``pytest-benchmark`` timing, prints the
paper-style rows, and writes them to ``benchmarks/results/`` (untracked
output; the committed full-scale numbers live in
``benchmarks/results_full/``).

Scale control: the environment variable ``REPRO_FULL=1`` runs the paper's
full parameters (30 concurrent sources, 1..30 sweep, 4x4 CM1 grid with the
full step count); the default is a reduced-but-structurally-identical
configuration so a benchmark pass completes in a couple of minutes.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def write_csv_table(name: str, columns, rows) -> None:
    """Companion CSV next to the txt rendering (plotting-ready)."""
    from repro.experiments.export import write_table_csv

    RESULTS_DIR.mkdir(exist_ok=True)
    write_table_csv(RESULTS_DIR / f"{name}.csv", columns, rows)


def write_csv_series(name: str, x_label, series) -> None:
    from repro.experiments.export import write_series_csv

    RESULTS_DIR.mkdir(exist_ok=True)
    write_series_csv(RESULTS_DIR / f"{name}.csv", x_label, series)


@pytest.fixture
def results_sink():
    return write_result
