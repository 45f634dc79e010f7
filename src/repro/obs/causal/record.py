"""Causal wait recording: the happens-before edges behind every resume.

The kernel calls :meth:`CausalRecorder.record_wait` whenever a process
resumes after a nonzero wait.  The recorder serializes a compact
description of the awaited event *at that moment* (the event graph is
mutable and may be garbage-collected later) into a ``causal.wait``
instant on the process's trace lane::

    {"p": "migrate:vm0", "t0": 5.0, "t1": 7.25,
     "w": {"k": "net.flow", "d": {"tag": "storage-push", ...},
           "t0": 5.0, "t1": 7.25}}

``t0``/``t1`` are exact simulation-time floats (seconds); the extractor
(:mod:`repro.obs.causal.critical`) converts them to ``Fraction`` so the
decomposition is exact.  Cross-process wakeups additionally emit Chrome
flow events (``ph: "s"``/``"f"``) so Perfetto draws span arrows from the
producer's lane to the consumer's.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Any, Optional, cast

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer
    from repro.simkernel.core import Environment, Event, Process
    from repro.simkernel.events import Condition

__all__ = ["CausalRecorder", "annotate", "describe"]

_US = 1e6

#: Maximum structural recursion when describing composite events.  Deep
#: enough for any_of(all_of(annotated-flows), timeout) with one level of
#: slack; deeper nests collapse to ``{"k": "deep"}``.
_MAX_DEPTH = 4


def annotate(env: "Environment", event: "Event", cls: str, **detail: Any) -> "Event":
    """Tag ``event`` with a causal resource class (no-op unless recording).

    Call at the site that hands a wait target to a consumer, e.g.::

        annotate(env, flow.done, "net.flow", tag=tag, cause=cause)

    Returns the event for chaining.
    """
    if env.probe.causal is not None:
        event._causal = (cls, detail)
    return event


def describe(event: "Event", depth: int = 0) -> dict:
    """A JSON-safe description of an event for causal attribution.

    Annotated events report their resource class + detail; structural
    events (process joins, conditions, timers) report their shape and
    trigger times so the extractor can recurse.
    """
    ann = event._causal
    if ann is not None:
        desc: dict = {"k": ann[0]}
        if ann[1]:
            desc["d"] = ann[1]  # annotate()'s own kwargs, never mutated
    elif depth >= _MAX_DEPTH:
        return {"k": "deep"}
    else:
        kind = _kind(type(event))
        desc = {"k": kind}
        if kind == "proc":
            desc["p"] = cast("Process", event).name
        elif kind == "any" or kind == "all":
            desc["c"] = [describe(child, depth + 1)
                         for child in cast("Condition", event)._events]
        elif kind == "event" and event.succeeded_by is not None:
            desc["by"] = event.succeeded_by
    _stamp(desc, event)
    return desc


@cache
def _kind(cls: type) -> str:
    """The structural kind of an unannotated event class."""
    # Local imports keep repro.obs import-safe (simkernel imports the
    # tracer module at startup; the reverse edge resolves lazily).
    from repro.simkernel.core import Process
    from repro.simkernel.events import AllOf, AnyOf, Timeout

    bases = ((Process, "proc"), (AnyOf, "any"), (AllOf, "all"), (Timeout, "timer"))
    return next((k for base, k in bases if issubclass(cls, base)), "event")


def _stamp(desc: dict, event: "Event") -> None:
    t0 = event.created_at
    t1 = event.triggered_at
    if t0 is not None:
        desc["t0"] = t0
    if t1 is not None:
        desc["t1"] = t1


class CausalRecorder:
    """Emits ``causal.wait`` instants + ``causal.handoff`` flow arrows."""

    __slots__ = ("_tracer", "_flow_seq")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._flow_seq = 0

    def record_wait(self, proc: str, t0: float, t1: float, woke: "Event") -> None:
        """One finished wait of process ``proc`` over ``[t0, t1]`` on ``woke``.

        Zero-duration waits carry no time and are skipped (they would
        only inflate the trace; the decomposition covers intervals, and a
        zero-length interval contributes nothing).
        """
        if t1 <= t0:
            return
        tr = self._tracer
        tr.instant(
            "causal.wait", cat="causal", tid=f"proc:{proc}",
            args={"p": proc, "t0": t0, "t1": t1, "w": describe(woke)},
        )
        self._emit_handoff(proc, t1, woke)

    def _emit_handoff(self, proc: str, t1: float, woke: "Event") -> None:
        """Flow arrow when another process produced the wakeup."""
        if _kind(type(woke)) == "proc":
            producer: Optional[str] = cast("Process", woke).name
        else:
            producer = woke.succeeded_by
        if producer is None or producer == proc:
            return
        tr = self._tracer
        start_ts = woke.triggered_at
        if start_ts is None:
            start_ts = t1
        self._flow_seq += 1
        ident = self._flow_seq
        pid = tr._pid()
        tr.events.append({
            "name": "causal.handoff",
            "ph": "s",
            "cat": "causal",
            "ts": start_ts * _US,
            "pid": pid,
            "tid": tr._tid(f"proc:{producer}"),
            "id": ident,
        })
        tr.events.append({
            "name": "causal.handoff",
            "ph": "f",
            "bp": "e",
            "cat": "causal",
            "ts": t1 * _US,
            "pid": pid,
            "tid": tr._tid(f"proc:{proc}"),
            "id": ident,
        })
