"""Chaos matrix: every migration approach under every fault kind.

The contract under test is the paper's central safety claim (Section 4.2):
because the source stays authoritative until the destination holds
everything it needs, a failed migration is never worse than no migration —
the run either *completes* (source relinquished, destination converged)
or *aborts cleanly* (VM still running on the source, no state lost).

Each cell of the matrix drives one VM under combined read+write pressure,
requests a migration at t=1s, injects one fault at t=1.3s (squarely inside
the pre-control window for every approach at this geometry) and then
checks the run reached one of the two legal terminal states with the
chunk-level content invariant intact.  The module-level SIGALRM fixture
(conftest) turns any hang into a loud failure.
"""

import numpy as np
import pytest

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.core.config import MigrationConfig
from repro.core.registry import APPROACHES
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.chunkview import render_migration_state
from repro.obs import Observability
from repro.simkernel import Environment
from repro.workloads.synthetic import PacedReader, RandomWriter

MB = 2**20

#: Small-image geometry (fast to simulate) with a replicated repository so
#: a single stripe-server outage is survivable by design.
CHAOS_SPEC = dict(
    n_nodes=4,
    nic_bw=100e6,
    backplane_bw=None,
    latency=1e-4,
    disk_bw=55e6,
    disk_cache_bytes=2 * 2**30,
    chunk_size=1 * MB,
    image_size=256 * MB,
    base_allocated=64 * MB,
    repo_replication=2,
)

FAULT_KINDS = [
    "link-degraded",
    "link-partitioned",
    "destination-crash",
    "stripe-server-down",
    "slow-disk",
]


def _fault(kind: str) -> FaultSpec:
    """One representative fault per matrix column.

    node1 is the migration destination; node2 hosts a repository stripe
    server but is neither source nor destination.
    """
    if kind == "link-degraded":
        return FaultSpec("link-degrade", "node1", at=1.3, duration=8.0,
                         severity=0.2)
    if kind == "link-partitioned":
        return FaultSpec("link-partition", "node1", at=1.3, duration=5.0)
    if kind == "destination-crash":
        return FaultSpec("node-crash", "node1", at=1.3)  # permanent
    if kind == "stripe-server-down":
        return FaultSpec("repo-server-down", "node2", at=1.3, duration=6.0)
    if kind == "slow-disk":
        return FaultSpec("slow-disk", "node1", at=1.3, duration=8.0,
                         severity=0.1)
    raise AssertionError(kind)


def _plan(kind: str) -> FaultPlan:
    # Retry budget (~8s timeout x 7 attempts) comfortably covers every
    # temporary outage above; the permanent crash exhausts it and aborts.
    return FaultPlan(
        faults=[_fault(kind)],
        chunk_timeout=8.0,
        retry_max=6,
        retry_backoff=0.25,
        migration_timeout=90.0,
        horizon=600.0,
    )


def _build(approach: str, plan: FaultPlan):
    env = Environment()
    Observability(trace=False, metrics=True).install(env)
    cluster = Cluster(env, ClusterSpec(**CHAOS_SPEC))
    config = plan.apply_to(MigrationConfig(push_batch=8, pull_batch=8))
    cloud = CloudMiddleware(cluster, config=config)
    vm = cloud.deploy(
        "vm0",
        cluster.node(0),
        approach=approach,
        memory_size=256 * MB,
        working_set=64 * MB,
    )
    # Combined pressure: random rewrites over the front of the image (the
    # pre-copy adversary) plus paced reads over the back (exercises the
    # on-demand pull path after control transfer).
    writer = RandomWriter(vm, total_bytes=160 * MB, rate=12e6, op_size=2 * MB,
                          region_offset=0, region_size=96 * MB, seed=7)
    reader = PacedReader(vm, total_bytes=64 * MB, rate=6e6, op_size=2 * MB,
                         region_offset=96 * MB, region_size=64 * MB, seed=11)
    writer.start()
    reader.start()
    FaultInjector(env, cluster, plan).start()
    return env, cloud, vm


def _check_content_clock(vm) -> None:
    """No lost chunks: whoever now owns the VM's disk must hold the final
    content version of every chunk the guest ever wrote."""
    clock = vm.content_clock
    written = clock > 0
    state = render_migration_state(vm.manager)
    np.testing.assert_array_equal(
        vm.manager.chunks.version[written], clock[written],
        err_msg=f"chunk versions diverged from the VM content clock:\n{state}",
    )


@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("approach", sorted(APPROACHES))
def test_chaos_matrix(approach, kind):
    plan = _plan(kind)
    env, cloud, vm = _build(approach, plan)
    out = {}

    def migrator():
        yield env.timeout(1.0)
        record = yield cloud.migrate(vm, cloud.cluster.node(1))
        out["record"] = record

    env.process(migrator())
    env.run(until=plan.horizon)

    record = out.get("record")
    assert record is not None, (
        f"{approach} under {kind}: migration neither completed nor aborted "
        f"by the plan horizon ({plan.horizon}s) — it hung:\n"
        + render_migration_state(vm.manager)
    )
    # The injector fired.
    mx = env.probe.metrics
    assert mx.counter(f"fault.inject.{_fault(kind).kind}").value >= 1

    if record.aborted:
        # Clean abort: the VM never left the source and never stopped.
        assert record.abort_cause, "aborted migrations must say why"
        assert vm.node is cloud.cluster.node(0)
        assert not vm.paused
        assert not vm.manager.is_source, "source manager must stand down"
        assert record.released_at is None
    else:
        # Completion: source relinquished, guest lives on the destination.
        assert record.released_at is not None
        assert vm.node is cloud.cluster.node(1)
        assert not vm.paused
    _check_content_clock(vm)


def test_destination_crash_always_aborts():
    """A permanent destination crash can never complete: every approach
    must abort (retry exhaustion or watchdog) with the source intact."""
    for approach in sorted(APPROACHES):
        plan = _plan("destination-crash")
        env, cloud, vm = _build(approach, plan)
        out = {}

        def migrator():
            yield env.timeout(1.0)
            out["record"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run(until=plan.horizon)
        record = out.get("record")
        assert record is not None, f"{approach}: migration hung after crash"
        assert record.aborted, f"{approach}: completed against a dead node"
        assert vm.node is cloud.cluster.node(0) and not vm.paused


def test_repo_outage_survived_by_retry_without_replication():
    """With replication=1 a stripe-server outage makes fetches fail hard;
    the bounded-retry fetch path must ride out a temporary outage."""
    spec = dict(CHAOS_SPEC, repo_replication=1)
    plan = FaultPlan(
        faults=[FaultSpec("repo-server-down", "node2", at=2.0, duration=6.0)],
        chunk_timeout=8.0,
        retry_max=6,
        retry_backoff=0.25,
        migration_timeout=120.0,
        horizon=600.0,
    )
    env = Environment()
    Observability(trace=False, metrics=True).install(env)
    cluster = Cluster(env, ClusterSpec(**spec))
    config = plan.apply_to(MigrationConfig(push_batch=8, pull_batch=8))
    cloud = CloudMiddleware(cluster, config=config)
    vm = cloud.deploy("vm0", cluster.node(0), approach="our-approach",
                      memory_size=256 * MB, working_set=64 * MB)
    # Reads over never-written chunks force repository fetches during the
    # outage window.
    reader = PacedReader(vm, total_bytes=96 * MB, rate=24e6, op_size=2 * MB,
                         region_offset=0, region_size=96 * MB, seed=3)
    reader.start()
    FaultInjector(env, cluster, plan).start()
    out = {}

    def migrator():
        yield env.timeout(1.0)
        out["record"] = yield cloud.migrate(vm, cluster.node(1))

    env.process(migrator())
    env.run(until=plan.horizon)

    record = out.get("record")
    assert record is not None and not record.aborted
    assert vm.node is cluster.node(1)
    assert env.probe.metrics.counter("repo.fetch.unavailable").value >= 1
    _check_content_clock(vm)
