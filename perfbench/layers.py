"""Outside-in per-layer tracing for the benchmark's traced run.

Nothing under ``src/`` is edited.  :class:`LayerTracer` replaces the public
entry points of each ``repro`` package with timing wrappers for the
duration of a ``with`` block, then puts the originals back:

* a *span* is recorded around every call of a wrapped function; a layer's
  self time is the span's duration minus the part covered by child spans,
  so self times across layers telescope to the time spent inside
  top-level spans;
* generators handed to ``Environment.process`` are wrapped so that every
  resume is a span of the package that defines the generator (this is how
  the engines in ``repro.core``, the hypervisor and the guest workloads
  are timed: they run only as resumed processes);
* a *group* names a set of wrapped functions whose inclusive time is one
  metric (``storage.disk`` = ``LocalDisk.io`` + ``LocalDisk.touch``);
  nested calls within one group are counted once.

Objects that capture bound methods at construction (``RearmableTimer``
callbacks) pick up the wrappers only if they are built inside the block,
which is why the tracer is installed before a pass builds its cells.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional

#: The layers metrics are reported for, each a ``repro`` package.  Time in
#: any other package (``repro.experiments`` scenario glue, ``repro.faults``)
#: and outside every span is reported as ``trace.unattributed_s``.
LAYERS = ("simkernel", "netsim", "repository", "storage", "core",
          "hypervisor", "workloads", "cluster", "obs")


def package_of(generator) -> str:
    """The ``repro`` sub-package whose source defines ``generator``."""
    code = getattr(generator, "gi_code", None)
    if code is None:
        return "other"
    parts = code.co_filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1]
    return "other"


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class LayerTracer:
    """Span and count recorder; use as a context manager around a pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.group_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.live_flows: list[int] = []
        #: Objects the pass built, read after it for simulated statistics.
        self.clouds: list = []
        self.managers: list = []
        self.tracers: list = []
        #: Time inside top-level spans, accumulated independently of the
        #: per-layer self times so the two can be checked against each other.
        self.root_s = 0.0
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def span(self, layer: str, group: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` counted under ``group``."""
        stack = self._stack
        depth = self._depth
        frame = _Frame()
        stack.append(frame)
        depth[group] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            depth[group] -= 1
            own = dt - frame.child
            self.self_s[layer] += own
            self.group_self_s[group] += own
            self.calls[group] += 1
            if depth[group] == 0:
                self.group_s[group] += dt
            if stack:
                stack[-1].child += dt
            else:
                self.root_s += dt

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`close` restores the original."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str, group: str,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanned version of itself.

        ``before(*args, **kwargs)`` runs ahead of each call, outside the
        span, to record counts or keep objects for later reading.
        """
        fn = getattr(owner, attr)
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            return span(layer, group, fn, *args, **kwargs)

        self.patch(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        try:
            install(self)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class _TimedGenerator:
    """A generator proxy whose every resume is a span of ``layer``.

    ``Process`` drives its generator only through ``send``/``throw`` and
    names the process after ``__name__``; both are forwarded unchanged so
    the simulation (and its trace) is identical with the proxy in place.
    """

    def __init__(self, tracer: LayerTracer, gen) -> None:
        self._span = tracer.span
        self._gen = gen
        self._layer = package_of(gen)
        self._group = f"{self._layer}.resume"
        self.__name__ = getattr(gen, "__name__", "process")

    def send(self, value):
        return self._span(self._layer, self._group, self._gen.send, value)

    def throw(self, exc):
        return self._span(self._layer, self._group, self._gen.throw, exc)

    def close(self):
        return self._gen.close()


def install(t: LayerTracer) -> None:
    """Wrap the entry points of every layer (see the module docstring)."""
    import repro.obs.analyze as analyze
    import repro.obs.causal as causal
    import repro.obs.export as export
    from repro.cluster.cloud import CloudMiddleware, Cluster
    from repro.core.chunkqueue import ChunkQueue
    from repro.core.manager import MigrationManager
    from repro.netsim.fairness import IncrementalMaxMin
    from repro.netsim.flows import Fabric
    from repro.obs import Observability
    from repro.obs.series.core import SeriesRecorder
    from repro.obs.tracer import Tracer
    from repro.repository.blobseer import StripedRepository
    from repro.repository.pvfs import PVFS
    from repro.simkernel.core import Environment
    from repro.simkernel.fluid import FluidShare
    from repro.storage.disk import LocalDisk
    from repro.storage.pagecache import PageCache
    from repro.workloads.base import Workload

    counts = t.counts

    def count(name: str) -> Callable:
        def hook(*args, **kwargs):
            counts[name] += 1
        return hook

    # simkernel: dispatch, process creation (wrapping the generator so
    # its resumes are timed) and fluid shares.
    t.wrap(Environment, "run", "simkernel", "simkernel.run")
    t.wrap(Environment, "step", "simkernel", "simkernel.step")
    process = Environment.process

    @functools.wraps(process)
    def timed_process(env, generator, name=""):
        return t.span("simkernel", "simkernel.process", process, env,
                      _TimedGenerator(t, generator), name=name)

    t.patch(Environment, "process", timed_process)
    t.wrap(FluidShare, "transfer", "simkernel", "simkernel.fluid",
           before=count("simkernel.fluid_transfers"))
    t.wrap(FluidShare, "_on_wakeup", "simkernel", "simkernel.fluid")

    # netsim: admission entry points, the timer-driven wakeup, the rate
    # recompute (sampling the live flow count) and the max-min solver,
    # whose stats out-parameter reports memo hits.
    for name in ("transfer", "message", "rpc", "cancel"):
        t.wrap(Fabric, name, "netsim", f"netsim.{name}")
    t.wrap(Fabric, "_on_wakeup", "netsim", "netsim.wakeup")
    t.wrap(Fabric, "_recompute", "netsim", "netsim.recompute",
           before=lambda fabric: t.live_flows.append(len(fabric._flows)))
    solve = IncrementalMaxMin.solve

    @functools.wraps(solve)
    def timed_solve(solver, weights, srcs, dsts, stats=None):
        stats = {} if stats is None else stats
        hits = stats.get("memo_hits", 0)
        try:
            return t.span("netsim", "netsim.solve", solve, solver, weights,
                          srcs, dsts, stats=stats)
        finally:
            counts["netsim.memo_hits"] += stats.get("memo_hits", 0) - hits

    t.patch(IncrementalMaxMin, "solve", timed_solve)

    # repository: stripe fan-out (BlobSeer) and the shared file system.
    # PVFS.fetch delegates to read, so each request is counted once there.
    def chunk_bytes(repo, chunk_ids, *args, **kwargs):
        counts["repository.bytes"] += len(chunk_ids) * repo.chunk_size

    def io_bytes(pvfs, client, nbytes, *args, **kwargs):
        counts["repository.bytes"] += nbytes

    t.wrap(StripedRepository, "fetch", "repository", "repository",
           before=chunk_bytes)
    t.wrap(StripedRepository, "store", "repository", "repository",
           before=chunk_bytes)
    t.wrap(PVFS, "read", "repository", "repository", before=io_bytes)
    t.wrap(PVFS, "write", "repository", "repository", before=io_bytes)

    # storage: local disks and the page cache.
    t.wrap(LocalDisk, "io", "storage", "storage.disk",
           before=count("storage.disk_ios"))
    t.wrap(LocalDisk, "touch", "storage", "storage.disk")
    t.wrap(PageCache, "read", "storage", "storage.pagecache")
    t.wrap(PageCache, "write", "storage", "storage.pagecache")

    # core: chunk queues; the engines themselves run as resumed processes.
    t.wrap(ChunkQueue, "push", "core", "core.chunkqueue")
    t.wrap(ChunkQueue, "take", "core", "core.chunkqueue")
    t.wrap(MigrationManager, "__init__", "core", "core.build",
           before=lambda mgr, *a, **k: t.managers.append(mgr))

    # workloads: guest I/O calls (generator functions: the span covers
    # their creation, their bodies run inside the workload's resumes).
    t.wrap(Workload, "read", "workloads", "workloads.ops")
    t.wrap(Workload, "write", "workloads", "workloads.ops")

    # cluster: platform construction, deployment and migration requests.
    t.wrap(Cluster, "__init__", "cluster", "cluster.build")
    t.wrap(CloudMiddleware, "__init__", "cluster", "cluster.build",
           before=lambda cloud, *a, **k: t.clouds.append(cloud))
    t.wrap(CloudMiddleware, "deploy", "cluster", "cluster.build")
    t.wrap(CloudMiddleware, "migrate", "cluster", "cluster.migrate")

    # obs: probe calls, per-run bookkeeping and the offline analyzers.
    for name in ("instant", "complete", "counter", "span", "async_span"):
        t.wrap(Tracer, name, "obs", "obs.probe")
    for name in ("gauge", "inc", "credit_net", "distribution"):
        t.wrap(SeriesRecorder, name, "obs", "obs.probe")

    def keep_tracer(obs, env):
        if obs.tracer.enabled and all(tr is not obs.tracer
                                      for tr in t.tracers):
            t.tracers.append(obs.tracer)

    t.wrap(Observability, "install", "obs", "obs.run", before=keep_tracer)
    t.wrap(Observability, "note_traffic", "obs", "obs.run")
    t.wrap(analyze, "analyze_tracer", "obs", "obs.analyze")
    t.wrap(export, "chrome_trace", "obs", "obs.export")
    t.wrap(causal, "critical_path_summary", "obs", "obs.critical")
    t.wrap(SeriesRecorder, "finish_run", "obs", "obs.series")
    t.wrap(SeriesRecorder, "summary", "obs", "obs.series")
    t.wrap(analyze, "render_html", "obs", "obs.report")


#: Per-layer metric names and units, in report order.  ``_s`` times are
#: host seconds; every other metric is a count or ratio of simulated work.
UNITS = {
    "simkernel.events": "count", "simkernel.step_self_s": "s",
    "simkernel.fluid_transfers": "count", "simkernel.fluid_s": "s",
    "simkernel.fluid_jobs_touched": "count",
    "netsim.transfers": "count", "netsim.messages": "count",
    "netsim.transfer_s": "s", "netsim.live_flows_p50": "flows",
    "netsim.live_flows_max": "flows", "netsim.solves": "count",
    "netsim.solve_s": "s", "netsim.memo_hit_ratio": "fraction",
    "netsim.links_per_solve": "links", "netsim.recompute_s": "s",
    "netsim.flows_touched": "count",
    "repository.calls": "count", "repository.bytes": "bytes",
    "repository.s": "s",
    "storage.disk_ios": "count", "storage.disk_s": "s",
    "storage.pagecache_s": "s",
    "core.resumes": "count", "core.resume_s": "s",
    "core.chunkqueue_s": "s", "core.ondemand_ratio": "fraction",
    "hypervisor.resume_s": "s", "hypervisor.memory_rounds": "count",
    "workloads.resume_s": "s", "workloads.ops": "count",
    "cluster.migrations": "count", "cluster.aborts": "count",
    "obs.probe_calls": "count", "obs.probe_s": "s",
    "obs.trace_events": "count", "obs.analyze_s": "s",
    "obs.critical_s": "s", "obs.series_s": "s", "obs.report_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s", "trace.overhead_ratio": "ratio",
}


def layer_metrics(t: LayerTracer, prof_counters: dict,
                  wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metric table of one traced pass of ``wall_s``."""
    c = prof_counters
    solves = c.get("maxmin.solves", 0)
    solve_calls = t.calls["netsim.solve"]
    pulls = ondemand = 0
    for mgr in t.managers:
        stats = getattr(mgr, "stats", {})
        ondemand += stats.get("ondemand_chunks", 0)
        pulls += stats.get("ondemand_chunks", 0) + stats.get("pulled_chunks", 0)
    records = [r for cloud in t.clouds for r in cloud.collector.records]
    out = {
        "simkernel.events": (c.get("kernel.heap_pop", 0)
                             + c.get("kernel.bucket_pop", 0)
                             - c.get("kernel.cancelled_skips", 0)),
        "simkernel.step_self_s": t.group_self_s["simkernel.step"],
        "simkernel.fluid_transfers": t.counts["simkernel.fluid_transfers"],
        "simkernel.fluid_s": t.group_s["simkernel.fluid"],
        "simkernel.fluid_jobs_touched": c.get("fluid.jobs_touched", 0),
        "netsim.transfers": t.calls["netsim.transfer"],
        "netsim.messages": t.calls["netsim.message"],
        "netsim.transfer_s": sum(
            t.group_self_s[f"netsim.{name}"]
            for name in ("transfer", "message", "rpc", "cancel")),
        "netsim.live_flows_p50": (statistics.median(t.live_flows)
                                  if t.live_flows else 0),
        "netsim.live_flows_max": max(t.live_flows, default=0),
        "netsim.solves": solve_calls,
        "netsim.solve_s": t.group_s["netsim.solve"],
        "netsim.memo_hit_ratio": (t.counts["netsim.memo_hits"] / solve_calls
                                  if solve_calls else 0.0),
        "netsim.links_per_solve": (c.get("maxmin.links_visited", 0) / solves
                                   if solves else 0.0),
        "netsim.recompute_s": t.group_s["netsim.recompute"],
        "netsim.flows_touched": c.get("fabric.flows_touched", 0),
        "repository.calls": t.calls["repository"],
        "repository.bytes": t.counts["repository.bytes"],
        "repository.s": t.group_s["repository"],
        "storage.disk_ios": t.counts["storage.disk_ios"],
        "storage.disk_s": t.group_s["storage.disk"],
        "storage.pagecache_s": t.group_s["storage.pagecache"],
        "core.resumes": t.calls["core.resume"],
        "core.resume_s": t.group_self_s["core.resume"],
        "core.chunkqueue_s": t.group_s["core.chunkqueue"],
        "core.ondemand_ratio": ondemand / pulls if pulls else 0.0,
        "hypervisor.resume_s": t.group_self_s["hypervisor.resume"],
        "hypervisor.memory_rounds": sum(r.memory_rounds for r in records),
        "workloads.resume_s": t.group_self_s["workloads.resume"],
        "workloads.ops": t.calls["workloads.ops"],
        "cluster.migrations": t.calls["cluster.migrate"],
        "cluster.aborts": sum(1 for r in records if r.aborted),
        "obs.probe_calls": t.calls["obs.probe"],
        "obs.probe_s": t.group_s["obs.probe"],
        "obs.trace_events": sum(len(tr.events) for tr in t.tracers),
        "obs.analyze_s": t.group_s["obs.analyze"],
        "obs.critical_s": t.group_s["obs.critical"],
        "obs.series_s": t.group_s["obs.series"],
        "obs.report_s": t.group_s["obs.report"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.self_s[layer]
    out["trace.unattributed_s"] = wall_s - sum(t.self_s[x] for x in LAYERS)
    out["trace.overhead_ratio"] = wall_s / untraced_wall_s
    return out


def conservation_error(t: LayerTracer, wall_s: float) -> float:
    """Relative gap between the self-time sum over *all* packages and the
    independently accumulated top-level span time (0 when the span
    bookkeeping is balanced), plus a negative-remainder guard."""
    total_self = sum(t.self_s.values())
    gap = abs(total_self - t.root_s)
    if t.root_s > wall_s:
        gap = max(gap, t.root_s - wall_s)
    return gap / wall_s if wall_s > 0 else 0.0
