"""Trace-driven guest I/O replay.

The paper's evaluation uses live benchmarks; production systems are
usually characterized by *I/O traces*.  Since real production traces are
not redistributable, this module provides (a) a replayer for any trace in
the simple `(timestamp, op, offset, nbytes)` form — e.g. converted SNIA /
MSR-Cambridge style block traces — and (b) generators for synthetic traces
with controlled burstiness, so trace-shaped experiments run out of the
box.

Replay semantics: ``timestamp`` is the *issue* time relative to workload
start (open-loop arrivals).  If the guest falls behind (an op completes
after the next op's issue time), subsequent ops issue immediately —
standard open-loop replay with coordinated-omission-free latency
recording.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.workloads.base import Workload

__all__ = ["TraceOp", "TraceWorkload", "generate_bursty_trace", "load_trace_csv"]


@dataclass(frozen=True)
class TraceOp:
    """One trace record."""

    timestamp: float
    op: str  # "read" | "write"
    offset: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        if self.timestamp < 0 or self.offset < 0 or self.nbytes <= 0:
            raise ValueError("timestamp/offset must be >= 0, nbytes > 0")


def load_trace_csv(path: str | pathlib.Path) -> list[TraceOp]:
    """Load ``timestamp,op,offset,nbytes`` rows (header optional)."""
    ops: list[TraceOp] = []
    with pathlib.Path(path).open() as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("timestamp", "#"):
                continue
            ts, op, offset, nbytes = row[:4]
            ops.append(
                TraceOp(float(ts), op.strip().lower(), int(offset), int(nbytes))
            )
    ops.sort(key=lambda o: o.timestamp)
    return ops


def generate_bursty_trace(
    duration: float,
    burst_rate: float,
    burst_len: float,
    quiet_len: float,
    op_size: int = 256 * 1024,
    read_fraction: float = 0.3,
    region_offset: int = 1 * 2**30,
    region_size: int = 1 * 2**30,
    seed: int = 0,
) -> list[TraceOp]:
    """An on/off (bursty) trace: ``burst_len`` seconds at ``burst_rate``
    bytes/s of issued I/O, then ``quiet_len`` seconds idle, repeating."""
    if burst_rate <= 0 or burst_len <= 0 or quiet_len < 0:
        raise ValueError("burst parameters must be positive (quiet_len >= 0)")
    if not 0 <= read_fraction <= 1:
        raise ValueError("read_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    gap = op_size / burst_rate
    n_slots = max(region_size // op_size, 1)
    ops: list[TraceOp] = []
    t = 0.0
    while t < duration:
        burst_end = min(t + burst_len, duration)
        while t < burst_end:
            kind = "read" if rng.random() < read_fraction else "write"
            slot = int(rng.integers(0, n_slots))
            ops.append(TraceOp(t, kind, region_offset + slot * op_size, op_size))
            t += gap
        t += quiet_len
    return ops


class TraceWorkload(Workload):
    """Replays a trace against a VM (open loop)."""

    name = "trace-replay"

    def __init__(self, vm, trace: Sequence[TraceOp] | Iterable[TraceOp], seed: int = 0):
        super().__init__(vm, seed=seed)
        self.trace = sorted(trace, key=lambda o: o.timestamp)
        self.ops_done = 0
        #: Per-op completion latency relative to the trace issue time
        #: (includes queueing when replay falls behind).
        self.latencies: list[float] = []

    def run(self):
        start = self.env.now
        for op in self.trace:
            issue_at = start + op.timestamp
            if self.env.now < issue_at:
                yield self.env.timeout(issue_at - self.env.now)
            if op.op == "write":
                yield from self.write(op.offset, op.nbytes)
            else:
                yield from self.read(op.offset, op.nbytes)
            self.ops_done += 1
            self.latencies.append(self.env.now - issue_at)

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.quantile(self.latencies, q))
