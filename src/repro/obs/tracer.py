"""Structured, simulation-time-stamped event tracing.

Two tracer flavours share one API:

* :class:`Tracer` records typed events (spans, instants, counters, async
  spans) stamped with the simulation clock of the :class:`~repro.simkernel.core.Environment`
  it is bound to.  Events are stored as plain dicts already shaped like the
  Chrome trace-event format, so export (:mod:`repro.obs.export`) is a
  serialization step, not a transformation.
* :class:`NullTracer` stands in when tracing is off.  Every method is a
  no-op returning a shared singleton.

Simulation code never calls the tracer directly: it records through
``env.probe`` (:mod:`repro.obs.probe`), which forwards the trace verbs
here with their arguments unchanged::

    pb = self.env.probe
    if pb.enabled:
        pb.instant("push.stop", cat="storage", tid=f"push:{vm}")

Determinism: events are stamped with simulation time and appended in
execution order.  Because the kernel delivers simultaneous events in a
deterministic order, two identical runs produce identical event lists —
and therefore byte-identical exports.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["NullTracer", "NULL_TRACER", "Tracer"]

#: Microseconds per simulated second (Chrome trace timestamps are in µs).
_US = 1e6


class _NullSpan:
    """Shared no-op context manager returned by NullTracer.span/scope."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer.  The probe never forwards a record to it; it
    answers the lifecycle calls and host-side spans, free of effects."""

    __slots__ = ()

    enabled = False
    verbose = False
    #: Causal wait recorder (:mod:`repro.obs.causal`); ``None`` = off.
    causal = None

    def bind(self, env: Any) -> None:
        pass

    def span(self, name: str, cat: str = "", tid: str = "main",
             args: Optional[dict] = None) -> _NullSpan:
        return _NULL_SPAN

    def scope(self, label: str) -> _NullSpan:
        return _NULL_SPAN


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


class _Span:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: str,
                 args: Optional[dict]):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer.now
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer.complete(
            self._name, self._t0, self._tracer.now,
            cat=self._cat, tid=self._tid, args=self._args,
        )
        return False


class _PidScope:
    """Context manager switching the tracer's current process lane."""

    __slots__ = ("_tracer", "_label", "_prev")

    def __init__(self, tracer: "Tracer", label: str):
        self._tracer = tracer
        self._label = label
        self._prev = tracer._pid_label

    def __enter__(self) -> "_PidScope":
        self._tracer._pid_label = self._label
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._pid_label = self._prev
        return False


class Tracer:
    """Collects trace events stamped with simulation time.

    Parameters
    ----------
    detail:
        ``"normal"`` records the structural events (spans, batches,
        migration phases, flow lifetimes); ``"full"`` additionally records
        high-frequency kernel events (process resumes, control messages).
    """

    enabled = True
    #: Causal wait recorder; ``None`` until :meth:`enable_causal`.  The
    #: kernel's resume hook checks this attribute, so recording stays free
    #: for plain traced runs.
    causal = None

    def __init__(self, detail: str = "normal"):
        if detail not in ("normal", "full"):
            raise ValueError(f"detail must be 'normal' or 'full', got {detail!r}")
        self.detail = detail
        self.events: list[dict] = []
        self._env: Any = None
        # Chrome pids/tids must be integers; labels get stable small ids in
        # first-use order (deterministic because execution is).
        self._pid_ids: dict[str, int] = {}
        self._tid_ids: dict[str, int] = {}
        self._pid_label = "sim"
        self._async_seq = 0

    # -- clock / identity --------------------------------------------------
    @property
    def verbose(self) -> bool:
        return self.detail == "full"

    @property
    def now(self) -> float:
        """Current simulation time of the bound environment (0 if unbound)."""
        return self._env.now if self._env is not None else 0.0

    def bind(self, env: Any) -> None:
        """Stamp subsequent events with ``env``'s clock."""
        self._env = env

    def enable_causal(self) -> Any:
        """Attach a :class:`~repro.obs.causal.CausalRecorder` (idempotent).

        Once enabled, every nonzero-duration process wait is recorded as a
        ``causal.wait`` instant and cross-process wakeups as Perfetto flow
        arrows — the raw material for critical-path extraction.
        """
        if self.causal is None:
            from repro.obs.causal import CausalRecorder

            self.causal = CausalRecorder(self)
        return self.causal

    def scope(self, label: str) -> _PidScope:
        """Context manager: events inside land in process lane ``label``.

        Used by multi-run experiments (compare, figN sweeps) so each run's
        events form a separate process group in Perfetto.
        """
        return _PidScope(self, label)

    def _pid(self) -> int:
        label = self._pid_label
        pid = self._pid_ids.get(label)
        if pid is None:
            pid = len(self._pid_ids) + 1
            self._pid_ids[label] = pid
        return pid

    def _tid(self, label: str) -> int:
        tid = self._tid_ids.get(label)
        if tid is None:
            tid = len(self._tid_ids) + 1
            self._tid_ids[label] = tid
        return tid

    # -- emission ----------------------------------------------------------
    def instant(self, name: str, cat: str = "", tid: str = "main",
                args: Optional[dict] = None) -> None:
        """A point-in-time event (Chrome ``ph: "i"``)."""
        ev = {
            "name": name,
            "ph": "i",
            "ts": self.now * _US,
            "pid": self._pid(),
            "tid": self._tid(tid),
            "s": "t",
        }
        if cat:
            ev["cat"] = cat
        if args:
            ev["args"] = args
        self.events.append(ev)

    def complete(self, name: str, start: float, end: float, cat: str = "",
                 tid: str = "main", args: Optional[dict] = None) -> None:
        """A duration span recorded once its extent is known (``ph: "X"``)."""
        ev = {
            "name": name,
            "ph": "X",
            "ts": start * _US,
            "dur": max(end - start, 0.0) * _US,
            "pid": self._pid(),
            "tid": self._tid(tid),
        }
        if cat:
            ev["cat"] = cat
        if args:
            ev["args"] = args
        self.events.append(ev)

    def async_span(self, name: str, start: float, end: float, cat: str = "",
                   tid: str = "main", args: Optional[dict] = None) -> None:
        """A span that may overlap others on the same lane (``ph: "b"/"e"``).

        Used for concurrent activities sharing one logical track — network
        flows, overlapping on-demand pulls.  Both halves are emitted
        together (the extent is known at completion), paired by id.
        """
        self._async_seq += 1
        ident = self._async_seq
        pid = self._pid()
        tid = self._tid(tid)
        begin = {
            "name": name,
            "ph": "b",
            "ts": start * _US,
            "pid": pid,
            "tid": tid,
            "id": ident,
            "cat": cat or "async",
        }
        if args:
            begin["args"] = args
        self.events.append(begin)
        self.events.append({
            "name": name,
            "ph": "e",
            "ts": end * _US,
            "pid": pid,
            "tid": tid,
            "id": ident,
            "cat": cat or "async",
        })

    def counter(self, name: str, values: Optional[dict] = None,
                tid: str = "counters") -> None:
        """A sampled counter track (``ph: "C"`` — graphed by Perfetto)."""
        self.events.append({
            "name": name,
            "ph": "C",
            "ts": self.now * _US,
            "pid": self._pid(),
            "tid": self._tid(tid),
            "args": values or {},
        })

    def span(self, name: str, cat: str = "", tid: str = "main",
             args: Optional[dict] = None) -> _Span:
        """Context manager measuring from ``__enter__`` to ``__exit__``."""
        return _Span(self, name, cat, tid, args)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def pid_labels(self) -> dict[str, int]:
        return dict(self._pid_ids)

    def tid_labels(self) -> dict[str, int]:
        return dict(self._tid_ids)

    def __repr__(self) -> str:
        return f"<Tracer detail={self.detail} events={len(self.events)}>"
