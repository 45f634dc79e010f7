"""AsyncWR benchmark model (Section 5.3).

The paper's custom tool: a fixed number of iterations, each running a
computational task (incrementing a counter) while generating random data
into a memory buffer; at the start of the next iteration the buffer is
copied aside and written **asynchronously** to the file system — a
moderate, constant I/O pressure (~6 MB/s) while the CPU stays busy.

Implementation: double buffering.  Iteration *i* computes for
``compute_time`` seconds concurrently with the background write of
iteration *i-1*'s buffer; the next write only starts once the previous one
completed (one outstanding buffer, as in the paper's alternate-buffer
scheme).  The *computational potential* is the aggregate counter value —
compute time actually completed — which Figure 4(c) compares against a
migration-free run.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.simkernel.core import Process
from repro.workloads.base import Workload

__all__ = ["AsyncWRWorkload"]


class AsyncWRWorkload(Workload):
    """Compute + asynchronous-write benchmark."""

    name = "AsyncWR"

    def __init__(
        self,
        vm,
        iterations: int = 180,
        data_per_iter: int = 10 * 2**20,
        io_pressure: float = 6e6,
        file_offset: int = 1 * 2**30,
        n_slots: int = 8,
        # Buffer generation + copy dirties roughly twice the I/O volume.
        dirty_rate: float = 12e6,
        seed: int = 0,
    ):
        super().__init__(vm, seed=seed)
        if io_pressure <= 0:
            raise ValueError("io_pressure must be positive")
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.iterations = int(iterations)
        self.data_per_iter = int(data_per_iter)
        #: Baseline compute time per iteration, chosen so the no-migration
        #: write pressure equals ``io_pressure`` bytes/s.
        self.compute_time = data_per_iter / io_pressure
        self.file_offset = int(file_offset)
        #: The benchmark reuses a small pool of output files (the paper's
        #: alternate-buffer scheme dumps into the same files over and
        #: over), so the same disk regions are rewritten continuously —
        #: the pattern that makes dirty-block re-sending expensive.
        self.n_slots = int(n_slots)
        self.dirty_rate = float(dirty_rate)
        self.counter = 0
        self.iterations_done = 0
        self._pending_write: Optional[Process] = None

    def _async_write(self, offset: int) -> Generator:
        yield from self.write(offset, self.data_per_iter)

    def run(self) -> Generator:
        self.vm.dirty_rate_base = self.dirty_rate
        n_slots = self.n_slots
        for i in range(self.iterations):
            # Kick off the previous buffer's write (double buffering): wait
            # for the *older* outstanding write first so at most one write
            # is in flight.
            if self._pending_write is not None and self._pending_write.is_alive:
                yield self._pending_write
            offset = self.file_offset + (i % n_slots) * self.data_per_iter
            self._pending_write = self.env.process(
                self._async_write(offset), name=f"asyncwr-io:{self.vm.name}"
            )
            # The computational task: keep the CPU busy, fill the buffer.
            yield from self.vm.compute(self.compute_time)
            self.counter += 1
            self.iterations_done += 1
        if self._pending_write is not None and self._pending_write.is_alive:
            yield self._pending_write

    # -- Figure 4(c) metric ------------------------------------------------------
    def computational_potential(self) -> int:
        """Aggregate end-value of the counter (the paper's potential)."""
        return self.counter
