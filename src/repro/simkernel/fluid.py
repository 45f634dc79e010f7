"""Weighted processor-sharing fluid resource.

Models a single capacity constraint (a disk, a single link) shared by a
varying set of concurrent transfers: at any instant each of the ``k`` active
jobs progresses at ``weight_i / sum(weights) * capacity`` bytes/second
(processor sharing).

This is the standard fluid approximation used by flow-level network and
storage simulators; it reproduces throughput/latency interference without
simulating individual requests.

Under processor sharing every job's ``remaining / weight`` falls at the same
rate, ``capacity / sum(weights)``, so the share keeps one *virtual clock*
``V`` (service delivered per unit of weight) instead of per-job counters.
A job admitted at ``V`` finishes when ``V`` reaches its finish tag
``F = V + nbytes / weight``; its remaining bytes are ``(F - V) * weight``.
Tags sit in a heap, so an arrival or a completion costs O(log n) and the
next wakeup is read off the heap minimum.

Numerics: ``sum(weights)`` is recomputed exactly (``math.fsum`` over the
live weights) whenever the job set changes, since a running add/subtract
total can cancel to 0 while a job is still live (``1e20 + 1.0 - 1e20 ==
0.0``); and ``V`` restarts at 0 whenever the share empties, so it never
grows beyond one busy period.
"""

from __future__ import annotations

import heapq
import math

from repro.obs.causal.record import annotate
from repro.simkernel.core import Environment, Event
from repro.simkernel.events import RearmableTimer

__all__ = ["FluidShare", "FluidJob", "DONE_EPS", "MIN_ETA"]

#: Bytes below which a job (or a fabric flow) counts as finished.  Far
#: below any chunk size, far above float64 rounding error on multi-GB
#: transfers.
DONE_EPS = 1e-3
#: Minimum wakeup delta: guarantees the clock actually advances even when
#: the analytic eta underflows float spacing at the current time.
MIN_ETA = 1e-9


class FluidJob:
    """One in-flight transfer through a :class:`FluidShare`."""

    __slots__ = ("nbytes", "weight", "done", "started_at")

    def __init__(self, env: Environment, nbytes: float, weight: float) -> None:
        self.nbytes = float(nbytes)
        self.weight = float(weight)
        self.done = Event(env)
        self.started_at = env.now


class FluidShare:
    """A processor-sharing fluid server of fixed ``capacity`` bytes/second."""

    def __init__(self, env: Environment, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        #: ``(finish tag, admission seq, job)`` per active job; the seq
        #: breaks tag ties in admission order.
        self._heap: list[tuple[float, int, FluidJob]] = []
        #: Live weights by admission seq, summed exactly into ``_total_w``.
        self._weights: dict[int, float] = {}
        self._total_w = 0.0
        self._seq = 0
        #: Virtual clock: service per unit of weight in this busy period.
        self._vtime = 0.0
        self._last_update = env.now
        self._timer = RearmableTimer(env, self._on_wakeup)
        #: Total bytes ever completed through this resource.
        self.total_bytes = 0.0

    # -- public ------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """1.0 while any job is active, else 0.0 (fluid model is work-conserving)."""
        return 1.0 if self._heap else 0.0

    def transfer(self, nbytes: float, weight: float = 1.0) -> Event:
        """Start a transfer of ``nbytes``; returns its completion event."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        job = FluidJob(self.env, nbytes, weight)
        if nbytes == 0:
            job.done.succeed(0.0)
            return job.done
        annotate(self.env, job.done, "fluid", name=self.name)
        self._advance()
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._vtime + job.nbytes / job.weight, seq, job))
        self._weights[seq] = job.weight
        self._total_w = math.fsum(self._weights.values())
        self._reschedule()
        return job.done

    def set_capacity(self, capacity: float) -> None:
        """Change capacity on the fly (integrates progress first)."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    # -- internals -----------------------------------------------------------
    def _advance(self) -> None:
        """Move the virtual clock to now and complete every job it passed."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        heap = self._heap
        if dt <= 0 or not heap:
            return
        prof = self.env.profiler
        if prof.enabled:
            prof.enter("fluid.advance")
            prof.count("fluid.advances")
        try:
            vtime = self._vtime + self.capacity * dt / self._total_w
            finished: list[tuple[float, int, FluidJob]] = []
            while heap and (heap[0][0] - vtime) * heap[0][2].weight <= DONE_EPS:
                finished.append(heapq.heappop(heap))
            self._vtime = vtime if heap else 0.0
            if not finished:
                return
            if prof.enabled:
                prof.count("fluid.jobs_touched", len(finished))
            # Jobs finishing at the same instant complete in admission order.
            finished.sort(key=lambda entry: entry[1])
            for _tag, seq, job in finished:
                del self._weights[seq]
                self.total_bytes += job.nbytes
                job.done.succeed(now - job.started_at)
            self._total_w = math.fsum(self._weights.values())
        finally:
            if prof.enabled:
                prof.exit()

    def _reschedule(self) -> None:
        """Re-aim the wakeup at the earliest finish tag."""
        if not self._heap:
            self._timer.cancel()
            return
        eta = (self._heap[0][0] - self._vtime) * self._total_w / self.capacity
        self._timer.arm(max(eta, MIN_ETA))

    def _on_wakeup(self) -> None:
        self._advance()
        self._reschedule()

    def __repr__(self) -> str:
        return (
            f"<FluidShare {self.name or hex(id(self))} cap={self.capacity:.0f}B/s "
            f"jobs={len(self._heap)}>"
        )
