"""The live fabric: flows, byte integration, rate recomputation.

The :class:`Fabric` keeps the set of in-flight flows.  Whenever the set
changes (a transfer starts or completes; a :meth:`Fabric.batch` of
same-instant admissions counts as one change) it

1. integrates every flow's progress at the previous rates up to *now*
   (crediting the traffic meter),
2. recomputes the weighted max-min fair rates via progressive filling,
3. schedules a wakeup at the earliest next completion.

This makes interference between memory migration, storage push/pull,
repository fetches and guest remote I/O fully emergent: they are just flows
competing for NICs and the backplane.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.netsim.fairness import IncrementalMaxMin, maxmin_single_switch
from repro.netsim.flowtable import FlowGroup, FlowTable
from repro.netsim.topology import Host, Topology
from repro.netsim.traffic import TrafficMeter
from repro.obs.causal.record import annotate
from repro.simkernel.core import Environment, Event
from repro.simkernel.events import RearmableTimer
from repro.simkernel.fluid import DONE_EPS, MIN_ETA

__all__ = ["NetFlow", "Fabric"]


class NetFlow:
    """One in-flight bulk transfer."""

    __slots__ = ("src", "dst", "tag", "cause", "weight", "nbytes", "remaining",
                 "rate", "done", "started_at", "_accounted", "_seq", "_group")

    def __init__(
        self,
        env: Environment,
        src: Host,
        dst: Host,
        nbytes: float,
        tag: str,
        weight: float,
        cause: Optional[str] = None,
    ):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.cause = cause if cause is not None else tag
        self.weight = float(weight)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = Event(env)
        self.started_at = env.now
        self._accounted = 0.0
        #: Arrival number and coalescing group, set by the flow table.
        self._seq = -1
        self._group: Optional[FlowGroup] = None

    def __repr__(self) -> str:
        return (
            f"<NetFlow {self.src.name}->{self.dst.name} tag={self.tag} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @{self.rate:.0f}B/s>"
        )


class Fabric:
    """Flow-level network over a :class:`Topology`.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        Hosts and capacity constraints.
    latency:
        One-way message latency in seconds (0.1 ms on the paper's GbE).
    meter:
        Traffic accounting sink; a fresh one is created when omitted.
    """

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        latency: float = 1e-4,
        meter: Optional[TrafficMeter] = None,
    ):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.topology = topology
        self.latency = float(latency)
        self.meter = meter if meter is not None else TrafficMeter()
        self._flows = FlowTable()
        self._last_update = env.now
        self._timer = RearmableTimer(env, self._on_wakeup)
        self._cause_override: list[str] = []
        #: Incremental solver (fast kernel only; the reference kernel
        #: re-solves from scratch every time and is the oracle).
        self._maxmin = IncrementalMaxMin(topology)
        #: Dirty-link tracking: set when the flow set changes, checked
        #: together with ``topology.version`` so a clean ``_recompute``
        #: (sampler-driven ``sync()``, wakeups with no completions) is a
        #: no-op — the standing rates are still the solution.
        self._dirty = True
        self._topo_version_seen = -1
        #: Open :meth:`batch` depth and the sim time it was opened at.
        self._batch_depth = 0
        self._batch_at = 0.0

    @contextmanager
    def batch(self):
        """Admit every flow created inside the scope in one reshare.

        A fan-out that starts many flows in the same instant (a striped
        repository fetch, a halo exchange) would otherwise re-solve and
        re-arm the wakeup once per flow, each time over every live flow.
        Inside the scope :meth:`transfer`, :meth:`cancel` and
        :meth:`abort_flows` only update the flow set; the recompute and
        the timer re-arm run once, when the outermost scope exits (also
        on an exception).  The intermediate solves were dead work: no
        simulated time passes between them, so no byte ever moved at
        their rates.  Simulated time must not pass inside the scope
        either -- never ``yield`` inside it (simlint K405).
        """
        if self._batch_depth == 0:
            self._batch_at = self.env.now
        self._batch_depth += 1
        try:
            yield self
        finally:
            try:
                self._check_batch_clock()
            finally:
                self._batch_depth -= 1
            if self._batch_depth == 0 and self._dirty:
                self._recompute()
                self._reschedule()

    def _check_batch_clock(self) -> None:
        if self._batch_depth and self.env.now != self._batch_at:
            raise RuntimeError(
                f"simulated time moved from {self._batch_at!r} to "
                f"{self.env.now!r} inside Fabric.batch(); a batch must not "
                "span a yield")

    def _changed(self) -> None:
        """The flow set changed: reshare now, or at the end of the batch."""
        self._dirty = True
        if self._batch_depth == 0:
            self._recompute()
            self._reschedule()

    @contextmanager
    def cause_scope(self, cause: str):
        """Attribute every transfer/message *created* inside the scope to
        ``cause`` — even calls passing an explicit cause of their own.

        Retry machinery uses this: a retried batch re-runs the same
        closures as the first attempt (which label their flows ``push``,
        ``prefetch``, ...), so the override — rather than a parameter
        threaded through every closure — marks the re-sent bytes as
        ``retry.<label>``.  Only flow *creation* is scoped; a flow keeps
        its cause for its whole lifetime.
        """
        self._cause_override.append(cause)
        try:
            yield
        finally:
            self._cause_override.pop()

    def _resolve_cause(self, cause: Optional[str], tag: str) -> str:
        if self._cause_override:
            return self._cause_override[-1]
        if cause is not None:
            return cause
        return tag

    # -- public ------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> dict[str, float]:
        """Snapshot ``{src->dst/tag: rate}`` for diagnostics."""
        return {
            f"{fl.src.name}->{fl.dst.name}/{fl.tag}": fl.rate for fl in self._flows
        }

    def host_load(self, host: Host) -> tuple[float, float]:
        """Current (ingress, egress) flow rates touching ``host`` in bytes/s.

        Used by the CPU-coupling model: moving bytes costs host CPU
        (vhost/softirq work), which slows guest compute proportionally.
        """
        inbound = sum(fl.rate for fl in self._flows if fl.dst is host)
        outbound = sum(fl.rate for fl in self._flows if fl.src is host)
        return inbound, outbound

    def sync(self) -> None:
        """Integrate all in-flight flows' progress up to *now*.

        The traffic meter is updated lazily (at flow arrivals/departures);
        samplers call this to observe up-to-date totals mid-transfer.
        """
        self._advance()
        self._recompute()
        self._reschedule()

    def transfer(
        self,
        src: Host,
        dst: Host,
        nbytes: float,
        tag: str = "data",
        weight: float = 1.0,
        cause: Optional[str] = None,
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst`` as a fluid flow.

        Returns an event that fires (with the elapsed duration as value)
        when the last byte has arrived.  Loopback transfers (``src is dst``)
        complete immediately and generate no traffic.

        ``cause`` labels *why* the bytes move (``push``, ``prefetch``,
        ``pull.demand``, ...); it defaults to the innermost
        :meth:`cause_scope` override, then to the tag itself.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        cause = self._resolve_cause(cause, tag)
        if src is dst:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        if src.failed or dst.failed:
            return self._black_hole(src, dst, tag, cause)
        flow = NetFlow(self.env, src, dst, nbytes, tag, weight, cause)
        if nbytes == 0:
            flow.done.succeed(0.0)
            return flow.done
        # Handle back to the flow, so Fabric.cancel() can find and
        # abandon it from just the returned event.
        flow.done.flow = flow
        annotate(self.env, flow.done, "net.flow",
                 tag=tag, cause=cause, src=src.name, dst=dst.name)
        self._advance()
        self._flows.add(flow)
        self._changed()
        return flow.done

    def message(self, src: Host, dst: Host, nbytes: float = 512,
                tag: str = "control", cause: Optional[str] = None) -> Event:
        """A small control message: one latency plus serialization at NIC speed.

        Control messages are not pushed through the fluid scheduler — they
        are tiny compared to bulk flows and modeling them as flows would only
        add noise and event churn.
        """
        cause = self._resolve_cause(cause, tag)
        if src is dst:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        if src.failed or dst.failed:
            return self._black_hole(src, dst, tag, cause)
        cap = min(src.nic_out, dst.nic_in)
        if cap <= 0:
            # Fully partitioned link: the message is lost in transit.
            return self._black_hole(src, dst, tag, cause)
        self.meter.add(tag, nbytes, cause=cause)
        pb = self.env.probe
        if pb.enabled:
            pb.credit_net(tag, cause, self.env.now, nbytes)
            pb.instant(f"message:{tag}", cat="net", tid="net:control",
                       args={"src": src.name, "dst": dst.name,
                             "bytes": nbytes, "cause": cause},
                       full=True, per=tag)
        wire = nbytes / cap
        return annotate(self.env, self.env.timeout(self.latency + wire),
                        "net.message", tag=tag, cause=cause)

    def cancel(self, done_event: Event) -> bool:
        """Abandon the in-flight flow behind ``done_event`` (a value
        previously returned by :meth:`transfer`).

        Bytes moved so far stay credited to the traffic meter; the event
        is left pending forever — failing it would crash waiters that
        already gave up on it, and a pending event not in the queue never
        blocks ``env.run()``.  Returns ``True`` when a live flow was
        actually removed (``False`` for completed flows, black-holed
        transfers and non-flow events).
        """
        flow = getattr(done_event, "flow", None)
        if flow is None or flow not in self._flows:
            return False
        self._advance()
        if flow not in self._flows:
            return False  # crossed the finish line at the integration step
        self._flows.remove(flow)
        pb = self.env.probe
        if pb.enabled:
            pb.instant("flow.cancelled", cat="net", tid=f"net:{flow.tag}",
                       args={"src": flow.src.name, "dst": flow.dst.name,
                             "left_bytes": flow.remaining,
                             "cause": flow.cause})
        self._changed()
        return True

    def abort_flows(self, host: Host) -> int:
        """Tear down every in-flight flow touching ``host`` (node crash).

        Each aborted flow's ``done`` event stays pending forever — its
        waiters recover through their own timeout/retry machinery.
        Returns the number of flows removed.
        """
        self._advance()
        doomed = [fl for fl in self._flows if fl.src is host or fl.dst is host]
        if not doomed:
            return 0
        for fl in doomed:
            self._flows.remove(fl)
        pb = self.env.probe
        if pb.enabled:
            pb.instant("flows.aborted", cat="net", tid="net:faults",
                       args={"host": host.name, "count": len(doomed)})
        self._changed()
        return len(doomed)

    def _black_hole(self, src: Host, dst: Host, tag: str,
                    cause: Optional[str] = None) -> Event:
        """A transfer or message touching a crashed/partitioned endpoint:
        it never completes and moves no bytes.  The returned event stays
        pending forever — the caller's timeout/abort machinery is the
        only recovery path."""
        pb = self.env.probe
        if pb.enabled:
            pb.instant("flow.blackholed", cat="net", tid=f"net:{tag}",
                       args={"src": src.name, "dst": dst.name,
                             "cause": cause if cause is not None else tag})
        return annotate(self.env, Event(self.env), "net.blackhole",
                        tag=tag, cause=cause if cause is not None else tag)

    def rpc(self, src: Host, dst: Host, nbytes: float = 512,
            tag: str = "control", cause: Optional[str] = None):
        """Generator helper: request + reply round trip."""
        yield self.message(src, dst, nbytes, tag=tag, cause=cause)
        yield self.message(dst, src, nbytes, tag=tag, cause=cause)

    # -- internals -----------------------------------------------------------
    def _advance(self) -> None:
        self._check_batch_clock()
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        table = self._flows
        if dt <= 0 or not table:
            return
        prof = self.env.profiler
        if prof.enabled:
            prof.enter("fabric.advance")
            prof.count("fabric.advances")
            prof.count("fabric.flows_advanced", len(table))
        try:
            pb = self.env.probe
            meter = self.meter
            finished: list[NetFlow] = []
            for fl in table:
                moved = min(fl.rate * dt, fl.remaining)
                fl.remaining -= moved
                fl._accounted += moved
                meter.add(fl.tag, moved, cause=fl.cause)
                if pb.enabled:
                    # Shadow the meter credit value-for-value so the
                    # net.<tag> curve stays bit-identical to by_tag().
                    pb.credit_net(fl.tag, fl.cause, now, moved)
                if fl.remaining <= DONE_EPS:
                    fl.remaining = 0.0
                    finished.append(fl)
            if not finished:
                return
            self._dirty = True
            for fl in finished:
                table.remove(fl)
                # Credit any residual rounding so accounting is exact.
                residual = fl.nbytes - fl._accounted
                if residual > 0:
                    meter.add(fl.tag, residual, cause=fl.cause)
                    fl._accounted = fl.nbytes
                if pb.enabled:
                    if residual > 0:
                        pb.credit_net(fl.tag, fl.cause, now, residual)
                    pb.async_span(
                        f"flow:{fl.tag}", fl.started_at, now,
                        cat="net", tid=f"net:{fl.tag}",
                        args={"src": fl.src.name, "dst": fl.dst.name,
                              "bytes": fl.nbytes, "cause": fl.cause},
                        per=fl.tag,
                    )
                fl.done.succeed(self.env.now - fl.started_at)
        finally:
            if prof.enabled:
                prof.exit()

    def _recompute(self) -> None:
        pb = self.env.probe
        if pb.enabled:
            # Every reshare samples the concurrency level: a counter track
            # Perfetto graphs directly (traffic burstiness, Section 5.4).
            pb.counter("fabric.active_flows", {"flows": len(self._flows)})
        topo = self.topology
        if not self._flows:
            self._dirty = False
            self._topo_version_seen = topo.version
            return
        prof = self.env.profiler
        if (not self._dirty and self._topo_version_seen == topo.version
                and self.env.kernel == "fast"):
            # Same flow set, same capacities: the standing rates are still
            # the max-min solution.  The dirty flag is driven by every
            # mutation path (transfer/cancel/abort/completion) and the
            # topology epoch by every fault hook, so skipping here can
            # never serve a stale rate — tests/faults/test_fault_
            # invalidation.py holds that line.
            if prof.enabled:
                prof.count("maxmin.cache_hits")
            return
        stats: Optional[dict] = None
        if prof.enabled:
            prof.enter("fabric.recompute")
            prof.count("maxmin.invocations")
            prof.count("fabric.flows_touched", len(self._flows))
            stats = {}
        try:
            # Coalesce same-(src, dst, traffic-class) flows into one solver
            # variable of the summed weight.  Members of such a group cross
            # *identical* constraint sets, so under weighted max-min they
            # rise and freeze together and the group allocation splits
            # proportionally to member weights — the coalesced solve is
            # mathematically the per-flow solve, at a fraction of the
            # variable count.  Applied under both kernels: it is model
            # semantics, not a fast-path shortcut.  The flow table keeps
            # the groups up to date as flows come and go.
            weights, srcs, dsts = self._flows.solver_inputs()
            if self.env.kernel == "fast":
                rates = self._maxmin.solve(weights, srcs, dsts, stats=stats)
            else:
                rates = maxmin_single_switch(
                    weights,
                    srcs,
                    dsts,
                    topo.nic_out_array(),
                    topo.nic_in_array(),
                    topo.backplane,
                    host_racks=(topo.rack_array()
                                if topo.rack_uplinks else None),
                    uplink_caps=topo.uplink_caps_array(),
                    stats=stats,
                )
            self._flows.assign_rates(rates)
            pb = self.env.probe
            if pb.enabled:
                self._sample_allocation(pb)
            self._dirty = False
            self._topo_version_seen = topo.version
        finally:
            if prof.enabled and stats is not None:
                prof.count("maxmin.rounds", stats.get("rounds", 0))
                prof.count("maxmin.links_visited",
                           stats.get("links_visited", 0))
                prof.count("maxmin.solves", stats.get("solves", 0))
                prof.count("maxmin.memo_hits", stats.get("memo_hits", 0))
                prof.exit()

    def _sample_allocation(self, pb) -> None:
        """Observe-only series probe on the just-solved max-min rates.

        Samples the allocated rate per traffic tag and the utilization of
        every NIC touched by a live flow.  Reads the solver's outputs and
        never writes back — the probe rides the reshares that already
        happen and schedules nothing.
        """
        now = self.env.now
        by_tag: dict[str, float] = {}
        egress: dict[Host, float] = {}
        ingress: dict[Host, float] = {}
        for fl in self._flows:
            by_tag[fl.tag] = by_tag.get(fl.tag, 0.0) + fl.rate
            egress[fl.src] = egress.get(fl.src, 0.0) + fl.rate
            ingress[fl.dst] = ingress.get(fl.dst, 0.0) + fl.rate
        for tag in sorted(by_tag):
            pb.gauge(f"net.rate.{tag}", now, by_tag[tag], unit="B/s")
        for host in sorted(egress, key=lambda h: h.name):
            if host.nic_out > 0:
                pb.gauge(f"link.{host.name}.out", now,
                         egress[host] / host.nic_out, unit="util")
        for host in sorted(ingress, key=lambda h: h.name):
            if host.nic_in > 0:
                pb.gauge(f"link.{host.name}.in", now,
                         ingress[host] / host.nic_in, unit="util")

    def _reschedule(self) -> None:
        if not self._flows:
            self._timer.cancel()
            return
        eta = min(
            (fl.remaining / fl.rate for fl in self._flows if fl.rate > 0),
            default=None,
        )
        if eta is None:
            # Every flow throttled to zero (a partitioned link, or a host
            # degraded to zero capacity): retry after a tick rather than
            # deadlock.
            eta = 1.0
        self._timer.arm(max(eta, MIN_ETA))

    def _on_wakeup(self) -> None:
        self._advance()
        self._recompute()
        self._reschedule()
