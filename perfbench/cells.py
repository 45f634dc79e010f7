"""Benchmark cells: the paper's scenario builders cut into timed units.

A *cell* is one call of a builder from :mod:`repro.experiments.scenarios`
with fixed arguments.  Each workload is a list of cells generated from the
workload seed; the simulator only ever sees the generated cells.

The seed draws each migration's trigger time from a finite pool that sits
within -10%..+7.5% of the figure's own warm-up (Fig 3: 10 s IOR and 100 s
AsyncWR; Fig 4 quick: 30 s; Fig 5: first migration at 60 s).  The
geometry, and so the amount of simulated work, stays the figure's; the
pool is finite so that every cell any seed can generate has a pinned
reference output (``pins/``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("crowd", "solo", "ensemble", "observed")

#: Approaches in the paper's Table 1 order (``repro.core.registry``).
APPROACHES = ("our-approach", "mirror", "postcopy", "precopy", "pvfs-shared")

#: Number of trigger times in each workload's pool.
POOL_SIZE = 8

#: Fig 3 warm-ups (``repro.experiments.fig3``) per guest benchmark.
SOLO_WARMUP = {"ior": 10.0, "asyncwr": 100.0}
#: Trigger-time draws per solo pass ("several seeds" of Fig 3).
SOLO_DRAWS = 3
#: Fig 4 geometry: 30 AsyncWR sources, 10 simultaneous migrations, the
#: quick iteration count and warm-up of ``run_fig4(quick=True)``.
CROWD_SOURCES = 30
CROWD_MIGRATIONS = 10
CROWD_ITERATIONS = 90
CROWD_WARMUP = 30.0
#: Fig 5 geometry: a 4x4 CM1 ensemble with 7 successive migrations.
ENSEMBLE_GRID = (4, 4)
ENSEMBLE_MIGRATIONS = 7
ENSEMBLE_FIRST_AT = 60.0
ENSEMBLE_APPROACHES = ("our-approach", "precopy")


@dataclass(frozen=True)
class Cell:
    """One scenario-builder call.

    ``trigger`` is the migration start time (the builders' ``warmup`` or
    ``first_at``); migration-free baselines carry ``None`` because the
    builders ignore it when ``migrate`` is false.
    """

    builder: str  # "single" | "concurrent" | "cm1"
    kind: str  # guest benchmark: "ior" | "asyncwr" | "cm1"
    approach: str
    trigger: Optional[float]

    @property
    def migrate(self) -> bool:
        return self.trigger is not None

    @property
    def key(self) -> str:
        """Stable name of the cell, the key of its pinned outputs."""
        if self.builder == "single":
            geometry = f"single/{self.kind}"
        elif self.builder == "concurrent":
            geometry = f"concurrent/{CROWD_SOURCES}src-x{CROWD_MIGRATIONS}"
        else:
            nx, ny = ENSEMBLE_GRID
            geometry = f"cm1/{nx}x{ny}-x{ENSEMBLE_MIGRATIONS}"
        when = "baseline" if self.trigger is None else f"at={self.trigger!r}"
        return f"{geometry}/{self.approach}/{when}"


def trigger_pool(base: float) -> tuple[float, ...]:
    """The ``POOL_SIZE`` trigger times around a figure's warm-up."""
    return tuple(round(base * (0.9 + 0.025 * v), 6) for v in range(POOL_SIZE))


def _cells(workload: str, picks) -> list[Cell]:
    """The cells of ``workload`` whose migrations start at the pool
    entries ``picks``, without repeats (a baseline is shared by all)."""
    if workload in ("solo", "observed"):
        cells = [
            Cell("single", kind, approach,
                 trigger_pool(SOLO_WARMUP[kind])[v])
            for v in picks
            for kind in ("ior", "asyncwr")
            for approach in APPROACHES
        ]
    elif workload == "crowd":
        pool = trigger_pool(CROWD_WARMUP)
        cells = [
            Cell("concurrent", "asyncwr", approach, when)
            for v in picks
            for approach in APPROACHES
            for when in (None, pool[v])
        ]
    elif workload == "ensemble":
        pool = trigger_pool(ENSEMBLE_FIRST_AT)
        cells = [Cell("cm1", "cm1", ENSEMBLE_APPROACHES[0], None)] + [
            Cell("cm1", "cm1", approach, pool[v])
            for v in picks
            for approach in ENSEMBLE_APPROACHES
        ]
    else:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return list(dict.fromkeys(cells))


def cells_for(workload: str, seed: int) -> list[Cell]:
    """The cells of one pass of ``workload`` for ``seed`` (deterministic)."""
    rng = random.Random(seed)
    if workload in ("solo", "observed"):
        picks = sorted(rng.sample(range(POOL_SIZE), SOLO_DRAWS))
    else:
        picks = [rng.randrange(POOL_SIZE)]
    return _cells(workload, picks)


def all_cells(workload: str) -> list[Cell]:
    """Every cell any seed can generate for ``workload`` (the pin set)."""
    return _cells(workload, range(POOL_SIZE))


def run_cell(cell: Cell, obs=None):
    """Run one cell through its scenario builder; returns the outcome."""
    from repro.experiments.scenarios import (
        run_cm1_successive,
        run_concurrent_migrations,
        run_single_migration,
    )

    if cell.builder == "single":
        return run_single_migration(
            cell.approach, workload=cell.kind, migrate=cell.migrate,
            warmup=cell.trigger if cell.migrate else SOLO_WARMUP[cell.kind],
            obs=obs,
        )
    if cell.builder == "concurrent":
        return run_concurrent_migrations(
            cell.approach, CROWD_MIGRATIONS, n_sources=CROWD_SOURCES,
            warmup=cell.trigger if cell.migrate else CROWD_WARMUP,
            migrate=cell.migrate,
            workload_kwargs=dict(iterations=CROWD_ITERATIONS), obs=obs,
        )
    if cell.builder == "cm1":
        return run_cm1_successive(
            cell.approach, ENSEMBLE_MIGRATIONS if cell.migrate else 0,
            grid=ENSEMBLE_GRID,
            first_at=cell.trigger if cell.migrate else ENSEMBLE_FIRST_AT,
            migrate=cell.migrate, obs=obs,
        )
    raise ValueError(f"unknown builder {cell.builder!r}")


def make_observability(workload: str, profiler=None):
    """The telemetry a workload's cells run under: every channel for
    ``observed``, none otherwise.  ``profiler`` (a ``repro.obs.Profiler``)
    adds host work counters for the traced run."""
    from repro.obs import Observability

    if workload == "observed":
        return Observability(trace=True, metrics=True, causal=True,
                             series=True, profile=profiler or False)
    if profiler is not None:
        return Observability(trace=False, metrics=False, profile=profiler)
    return None


def digest(outcome) -> dict:
    """The simulated outputs a cell is checked on."""
    return {
        "migration_times": list(outcome.migration_times),
        "downtimes": list(outcome.downtimes),
        "traffic_by_tag": dict(sorted(outcome.traffic_by_tag.items())),
        "elapsed": list(outcome.elapsed_each) or [outcome.workload_elapsed],
        "aborts": outcome.aborts,
    }
