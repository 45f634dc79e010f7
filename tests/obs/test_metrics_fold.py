"""The metrics fold loses no metric fact.

Before the probe, simulation code wrote counters, gauges and histograms
into the registry by hand.  Now the registry folds every probe record
(``repro.obs.registry``), so metric names derive from record names.
``data/fig2_metrics_parent.json`` holds the hand-written metrics of the
two fig2 runs as they were recorded before the fold; every value in it
must come out of the fold unchanged under :data:`NAME_MAP`, the map
``docs/observability.md`` documents.
"""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.fig2 import run_fig2
from repro.obs import Observability

PARENT = Path(__file__).parent / "data" / "fig2_metrics_parent.json"

#: Old hand-written metric name -> derived name(s), per instrument kind.
#: ``{x}`` carries a tag or fault kind through; a tuple of names is a sum.
NAME_MAP = {
    "counters": {
        "adopt.chunks": "adopt.chunks",
        "adopt.stale.chunks": "adopt.stale_chunks",
        "cor.fetch.chunks": "cor.fetch.chunks",
        "faults.cleared.{x}": "fault.clear.{x}",
        "faults.injected.{x}": "fault.inject.{x}",
        "migration.aborted": "migration.aborted",
        "migration.aborts.requested": "migration.abort_requested",
        "migration.completed": "migration",
        "migration.memory.bytes": "migration.memory_bytes",
        "migration.memory.rounds": "migration.memory_rounds",
        "migration.restarts": "migration.restart",
        "mirror.bulk.chunks": "mirror.bulk.batch.chunks",
        "mirror.write.bytes": "mirror.write.bytes",
        "mirror.writes": "mirror.write",
        "net.bytes.{x}": "net.bytes.{x}",
        "net.cause.{x}": "net.cause.{x}",
        "net.flows.aborted": "flows.aborted.count",
        "net.flows.blackholed": "flow.blackholed",
        "net.flows.cancelled": "flow.cancelled",
        "net.flows.{x}": "flow.{x}",
        "net.messages.{x}": "message.{x}",
        "net.reshares": "fabric.active_flows",
        "precopy.final.chunks": "precopy.final_flush.chunks",
        "precopy.resent.chunks": "precopy.batch.resent",
        "precopy.sent.chunks": "precopy.batch.chunks",
        "pull.cancelled.chunks": "pull.cancelled.chunks",
        "pull.demand.chunks": "pull.demand.chunks",
        "pull.prefetch.batches": "prefetch.batch",
        "pull.prefetch.chunks": "prefetch.batch.chunks",
        "pull.stalled.chunks": "pull.stalled.chunks",
        "push.batches": "push.batch",
        "push.bytes.wire": "push.batch.wire_bytes",
        "push.chunks": "push.batch.chunks",
        "push.hot_skipped": "push.hot_exclusion.chunks",
        "repo.fetch.chunks": "repo.fetch.chunks",
        "repo.fetch.gaveup": "repo.fetch.gaveup",
        "repo.fetch.requests": "repo.fetch",
        "repo.fetch.unavailable": "repo.fetch.unavailable",
        "repo.store.chunks": "repo.store.chunks",
        "repo.store.requests": "repo.store",
        "snapshot.restore.chunks": "snapshot.restore.chunks",
        "snapshot.take.chunks": "snapshot.take.chunks",
        "transfer.retries": "transfer.retry",
        "transfer.timeouts": ("transfer.timeout", "message.timeout"),
    },
    "gauges": {
        "net.active_flows": "fabric.active_flows.flows",
        "prefetch.queue_depth": "prefetch.queue_depth.chunks",
        "repo.fetch.stripe_width": "repo.fetch.stripe_width.stripes",
    },
    "histograms": {
        "migration.downtime": "downtime",
        "migration.time": "migration",
        "net.flow.duration": "flow",
        "pull.demand.latency": "pull.demand",
    },
}


def derived_names(kind: str, old: str) -> tuple[str, ...]:
    """The derived name(s) of ``old``; exact entries win over patterns."""
    table = NAME_MAP[kind]
    if old in table:
        new = table[old]
        return new if isinstance(new, tuple) else (new,)
    for pattern, new in table.items():
        if "{x}" not in pattern:
            continue
        m = re.fullmatch(re.escape(pattern).replace(r"\{x\}", "(.+)"), old)
        if m:
            return (new.replace("{x}", m.group(1)),)
    raise KeyError(f"no derived name for {kind} {old!r}")


def check_run(old: dict, new: dict) -> None:
    """Every old value equals its derived value in ``new``."""
    for old_name, value in old["counters"].items():
        names = derived_names("counters", old_name)
        got = sum(new["counters"].get(n, 0.0) for n in names)
        assert got == value, (old_name, names, got, value)
    for old_name, value in old["gauges"].items():
        (name,) = derived_names("gauges", old_name)
        assert new["gauges"][name] == value, (old_name, name)
    for old_name, value in old["histograms"].items():
        (name,) = derived_names("histograms", old_name)
        assert new["histograms"][name] == value, (old_name, name)


@pytest.fixture(scope="module")
def fig2_metrics():
    obs = Observability(trace=False, metrics=True)
    for approach in ("our-approach", "precopy"):
        run_fig2(approach, obs=obs)
    return obs.metrics_dump()


def test_fold_reproduces_every_parent_metric(fig2_metrics):
    parent = json.loads(PARENT.read_text())
    assert set(fig2_metrics["runs"]) == set(parent["runs"])
    for label, old in parent["runs"].items():
        check_run(old, fig2_metrics["runs"][label])


def test_metrics_do_not_depend_on_the_other_sinks(fig2_metrics):
    """The fold sees the same records whether the trace and the series
    recorder are on or off (full-detail records included)."""
    obs = Observability(trace=True, metrics=True, series=True,
                        detail="full")
    for approach in ("our-approach", "precopy"):
        run_fig2(approach, obs=obs)
    assert obs.metrics_dump() == fig2_metrics
