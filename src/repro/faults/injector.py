"""Execute a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector is pure simulation glue: one process per scheduled fault
sleeps until the injection time, applies the fault to the right component
(topology / fabric / repository / disk), optionally sleeps out the
duration and reverts it.  Every injection and recovery is emitted as a
``fault.inject`` / ``fault.clear`` trace instant plus ``faults.*``
counters so chaos runs are fully auditable from the trace alone.
"""

from __future__ import annotations

from typing import Generator

from repro.faults.plan import BACKPLANE, FaultPlan, FaultSpec
from repro.simkernel.core import Environment

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules and applies the faults of one plan.

    Parameters
    ----------
    env:
        The simulation environment (also drives tracing/metrics).
    cluster:
        A :class:`~repro.cluster.cloud.Cluster`; the injector reaches its
        topology, fabric, nodes, local disks and striped repository.
    plan:
        The fault schedule.  Targets are validated eagerly so a bad plan
        fails at :meth:`start` time, not minutes into a run.
    """

    def __init__(self, env: Environment, cluster, plan: FaultPlan):
        self.env = env
        self.cluster = cluster
        self.plan = plan
        for spec in plan.faults:
            self._validate_target(spec)

    # -- public -------------------------------------------------------------

    def start(self) -> "FaultInjector":
        """Spawn one injection process per scheduled fault."""
        for i, spec in enumerate(self.plan.faults):
            self.env.process(
                self._run_fault(spec),
                name=f"fault:{i}:{spec.kind}:{spec.target}",
            )
        return self

    # -- target resolution ---------------------------------------------------

    def _validate_target(self, spec: FaultSpec) -> None:
        if spec.target == BACKPLANE:
            return
        if self._find_node(spec.target) is None:
            raise ValueError(
                f"fault target {spec.target!r} names no node in the cluster"
            )
        if spec.kind == "repo-server-down" and self._server_index(spec.target) is None:
            raise ValueError(
                f"no repository stripe server is co-located on {spec.target!r}"
            )

    def _find_node(self, name: str):
        for node in self.cluster.nodes:
            if node.name == name:
                return node
        return None

    def _server_index(self, name: str):
        for i, host in enumerate(self.cluster.repository.servers):
            if host.name == name:
                return i
        return None

    # -- execution -----------------------------------------------------------

    def _run_fault(self, spec: FaultSpec) -> Generator:
        if spec.at > 0:
            yield self.env.timeout(spec.at)
        self._emit("fault.inject", spec)
        self._apply(spec)
        if spec.duration is None:
            return
        yield self.env.timeout(spec.duration)
        self._emit("fault.clear", spec)
        self._clear(spec)

    def _emit(self, name: str, spec: FaultSpec) -> None:
        pb = self.env.probe
        if pb.enabled:
            pb.instant(
                name,
                cat="faults",
                tid=f"faults:{spec.target}",
                args={
                    "kind": spec.kind,
                    "target": spec.target,
                    "severity": spec.severity,
                    "duration": spec.duration,
                },
                per=spec.kind,
            )

    def _apply(self, spec: FaultSpec) -> None:
        topo = self.cluster.topology
        fabric = self.cluster.fabric
        if spec.kind == "link-degrade":
            if spec.target == BACKPLANE:
                topo.set_backplane_factor(spec.severity)
            else:
                topo.degrade_host(spec.target, spec.severity)
            fabric.sync()
        elif spec.kind == "link-partition":
            if spec.target == BACKPLANE:
                topo.set_backplane_factor(0.0)
                fabric.sync()
            elif spec.permanent:
                # A permanent partition is indistinguishable from a crash
                # at the network level: refuse new flows and tear down the
                # in-flight ones so nothing ticks forever at rate zero.
                host = topo.fail_host(spec.target)
                fabric.abort_flows(host)
                fabric.sync()
            else:
                topo.degrade_host(spec.target, 0.0)
                fabric.sync()
        elif spec.kind == "node-crash":
            node = self._find_node(spec.target)
            node.failed = True
            host = topo.fail_host(node.host)
            fabric.abort_flows(host)
            fabric.sync()
        elif spec.kind == "repo-server-down":
            self.cluster.repository.fail_server(self._server_index(spec.target))
        elif spec.kind == "slow-disk":
            self._find_node(spec.target).disk.set_bandwidth_factor(spec.severity)
        else:  # pragma: no cover - guarded by FaultSpec validation
            raise AssertionError(f"unhandled fault kind {spec.kind!r}")

    def _clear(self, spec: FaultSpec) -> None:
        topo = self.cluster.topology
        fabric = self.cluster.fabric
        if spec.kind in {"link-degrade", "link-partition"}:
            if spec.target == BACKPLANE:
                topo.set_backplane_factor(1.0)
            else:
                topo.restore_host(spec.target)
            fabric.sync()
        elif spec.kind == "node-crash":
            node = self._find_node(spec.target)
            node.failed = False
            topo.recover_host(node.host)
            fabric.sync()
        elif spec.kind == "repo-server-down":
            self.cluster.repository.recover_server(self._server_index(spec.target))
        elif spec.kind == "slow-disk":
            self._find_node(spec.target).disk.set_bandwidth_factor(1.0)
