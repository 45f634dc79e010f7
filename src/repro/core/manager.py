"""The migration manager: guest I/O interposition + migration plumbing.

This is the component Figure 1 of the paper draws with a dark background on
every compute node.  Under normal operation it

* serves guest **reads** from the local chunk store, lazily fetching
  never-touched base-image chunks from the shared repository
  (copy-on-reference), and
* absorbs guest **writes** into locally stored chunks, maintaining the
  ``ModifiedSet``.

During a live migration the manager on the source assumes the *source
role*, its freshly spawned twin on the destination the *destination role*,
and the subclass's strategy decides what moves when.  The hypervisor
(:mod:`repro.hypervisor.control`) drives the lifecycle::

    on_migration_request -> [memory pre-copy rounds] -> on_sync
      -> (downtime: on_downtime) -> control transfer
      -> on_control_transferred -> ... -> release_event

Chunk content versions: every guest write advances the VM-wide logical
content clock for the touched chunks; transfers carry version values, and
the destination only ever adopts a version newer than what it holds.  The
end-to-end correctness invariant (checked by the integration tests) is
that after migration the destination's version vector equals the VM's
content clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.core.config import MigrationConfig
from repro.metrics.collector import MetricsCollector
from repro.netsim.flows import Fabric
from repro.obs.causal.record import annotate
from repro.simkernel.core import Environment, Event
from repro.storage.pagecache import PageCache
from repro.storage.virtualdisk import VirtualDisk

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import ComputeNode

__all__ = ["MigrationManager", "ChunkTransferStalled"]


class ChunkTransferStalled(RuntimeError):
    """A chunk transfer exhausted its bounded retry budget at a point
    where aborting the migration is no longer possible (post-control
    pull with the source unreachable) — the unsafe corner of the
    hybrid scheme that Section 6 of the paper concedes."""


class MigrationManager:
    """Base manager: local COW I/O path, no storage transfer on migration.

    Subclasses implement the Table 1 strategies by overriding the lifecycle
    hooks and, where the strategy changes the guest I/O path (mirror,
    pvfs-shared, on-demand pulls), the ``_absorb_write`` / ``_before_read``
    hooks.
    """

    #: Short name as used in the paper's Table 1.
    name = "base"
    #: Human summary of the local storage transfer strategy (Table 1 text).
    strategy_summary = "No storage transfer (base manager)"
    #: Fraction of remotely-written bytes that additionally dirty guest
    #: memory (client cache churn); only the pvfs baseline sets this.
    write_memory_churn = 0.0

    def __init__(
        self,
        env: Environment,
        vm,
        node: "ComputeNode",
        vdisk: VirtualDisk,
        repo,
        fabric: Fabric,
        collector: MetricsCollector,
        config: Optional[MigrationConfig] = None,
    ):
        self.env = env
        self.vm = vm
        self.node = node
        self.vdisk = vdisk
        self.repo = repo
        self.fabric = fabric
        self.collector = collector
        self.config = config if config is not None else MigrationConfig()
        self.pagecache = PageCache(env, vm.read_bw, vm.write_bw)

        self.is_source = False
        self.is_destination = False
        #: Fires when the source is fully relinquished (= migration end).
        self.release_event = Event(env)
        self.peer: Optional["MigrationManager"] = None
        #: True on the source between MIGRATION_REQUEST and control transfer
        #: (the only period in which Algorithm 2 counts writes).
        self._count_writes = False
        #: The LiveMigration process driving this manager's migration
        #: (source side, pre-control only); :meth:`request_abort`
        #: interrupts it.
        self.migration_proc = None
        #: True while abort-and-restart is still safe (between
        #: MIGRATION_REQUEST and the stop-and-copy decision).
        self._abortable = False

    # -- convenience -----------------------------------------------------------
    @property
    def host(self):
        return self.node.host

    @property
    def chunks(self):
        return self.vdisk.chunks

    @property
    def chunk_size(self) -> int:
        return self.vdisk.chunk_size

    def spawn_peer(self, dst_node: "ComputeNode") -> "MigrationManager":
        """Create this manager's destination twin on ``dst_node``."""
        vdisk = self.vdisk.clone_geometry(dst_node.disk, name=f"{self.vm.name}@dst")
        peer = type(self)(
            self.env,
            self.vm,
            dst_node,
            vdisk,
            self.repo,
            self.fabric,
            self.collector,
            self.config,
        )
        peer.peer = self
        self.peer = peer
        return peer

    # -- failure semantics ---------------------------------------------------------
    def request_abort(self, cause: str) -> bool:
        """Abort the in-flight migration (source side, pre-control only).

        Engines call this after exhausting their bounded retries; the
        hypervisor's watchdog calls it when the pre-control phase is
        stuck.  The interrupt lands in the LiveMigration process, which
        cancels the migration and leaves the VM running on the source.
        Returns ``False`` when aborting is not possible (no migration in
        flight, or already past the stop-and-copy point of no return).
        """
        proc = self.migration_proc
        if not (self.is_source and self._abortable):
            return False
        if proc is None or not proc.is_alive:
            return False
        self._abortable = False
        pb = self.env.probe
        if pb.enabled:
            pb.instant("migration.abort_requested", cat="migration",
                       tid=f"migration:{self.vm.name}", args={"cause": cause})
        proc.interrupt(cause)
        return True

    def _emit_retry(self, label: str, attempt: int, delay: float) -> None:
        pb = self.env.probe
        if pb.enabled:
            pb.instant("transfer.retry", cat="faults",
                       tid=f"faults:{self.vm.name}",
                       args={"label": label, "attempt": attempt,
                             "backoff": delay})

    def _emit_timeout(self, kind: str, label: str, attempt: int) -> None:
        pb = self.env.probe
        if pb.enabled:
            pb.instant(kind, cat="faults", tid=f"faults:{self.vm.name}",
                       args={"label": label, "attempt": attempt})

    def _transfer_attempts(self, make_events, label: str) -> Generator:
        """Run a pipelined transfer batch under the per-batch timeout.

        ``make_events`` builds the batch's event list afresh for every
        attempt (fabric transfers, disk loads, page-cache charges).  With
        the default infinite ``chunk_timeout`` this is exactly the
        pre-fault single attempt — no extra events, so fault-free runs
        stay byte-identical.  Otherwise each timed-out attempt cancels
        its stuck fabric flows, backs off exponentially and retries up
        to ``retry_max`` times.  Returns ``True`` when the batch landed,
        ``False`` when the retry budget is exhausted.
        """
        cfg = self.config
        if cfg.chunk_timeout == float("inf"):
            events = make_events()
            if len(events) == 1:
                yield events[0]
            else:
                yield self.env.all_of(events)
            return True
        delay = cfg.retry_backoff
        for attempt in range(cfg.retry_max + 1):
            if attempt == 0:
                events = make_events()
            else:
                # Re-sent bytes are waste the first attempt already paid
                # for; attribute them to the retry, not the strategy.
                with self.fabric.cause_scope(f"retry.{label}"):
                    events = make_events()
            done = self.env.all_of(events)
            stall = annotate(self.env, self.env.timeout(cfg.chunk_timeout),
                             "stall.chunk_timeout", label=label)
            yield self.env.any_of([done, stall])
            if done.triggered:
                return True
            for ev in events:
                self.fabric.cancel(ev)
            self._emit_timeout("transfer.timeout", label, attempt)
            if attempt == cfg.retry_max:
                return False
            self._emit_retry(label, attempt, delay)
            yield annotate(self.env, self.env.timeout(delay),
                           "retry.backoff", label=label)
            delay *= 2
        return False

    def _message_attempts(self, make_message, label: str) -> Generator:
        """Deliver a control message under the chunk timeout.

        A message to a crashed or partitioned host is black-holed (lost
        in transit); each timed-out attempt resends after exponential
        back-off.  Fault-free (infinite timeout) this yields the bare
        message event, adding nothing.  Returns ``True`` on delivery.
        """
        cfg = self.config
        if cfg.chunk_timeout == float("inf"):
            yield make_message()
            return True
        delay = cfg.retry_backoff
        for attempt in range(cfg.retry_max + 1):
            if attempt == 0:
                ev = make_message()
            else:
                with self.fabric.cause_scope(f"retry.{label}"):
                    ev = make_message()
            stall = annotate(self.env, self.env.timeout(cfg.chunk_timeout),
                             "stall.chunk_timeout", label=label)
            yield self.env.any_of([ev, stall])
            if ev.triggered:
                return True
            self._emit_timeout("message.timeout", label, attempt)
            if attempt == cfg.retry_max:
                return False
            self._emit_retry(label, attempt, delay)
            yield annotate(self.env, self.env.timeout(delay),
                           "retry.backoff", label=label)
            delay *= 2
        return False

    def _repo_fetch(self, chunk_ids: np.ndarray, tag: str = "repo-fetch") -> Generator:
        """Repository fetch with bounded retry over transient failures.

        Fault-free this yields exactly the event ``repo.fetch`` returns.
        When every live replica of a chunk is down the fetch is retried
        with exponential back-off until ``retry_max`` is exhausted, then
        the final :class:`RepositoryUnavailable` propagates.
        """
        from repro.repository.blobseer import RepositoryUnavailable

        cfg = self.config
        delay = cfg.retry_backoff
        attempt = 0
        while True:
            try:
                if attempt == 0:
                    ev = self.repo.fetch(chunk_ids, self.host, tag=tag,
                                         cause="repo.fetch")
                else:
                    with self.fabric.cause_scope(f"retry.{tag}"):
                        ev = self.repo.fetch(chunk_ids, self.host, tag=tag,
                                             cause="repo.fetch")
            except RepositoryUnavailable:
                gaveup = attempt >= cfg.retry_max
                pb = self.env.probe
                if pb.enabled:
                    pb.instant("repo.fetch.unavailable", cat="faults",
                               tid=f"faults:{self.vm.name}",
                               args={"attempt": attempt}, full=True)
                    if gaveup:
                        pb.instant("repo.fetch.gaveup", cat="faults",
                                   tid=f"faults:{self.vm.name}", full=True)
                if gaveup:
                    raise
                self._emit_retry(tag, attempt, delay)
                yield annotate(self.env, self.env.timeout(delay),
                               "retry.backoff", label=tag)
                delay *= 2
                attempt += 1
                continue
            yield ev
            return

    # -- guest I/O path ----------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> Generator:
        """Guest read (Algorithm 4 in the hybrid subclass)."""
        span = self.chunks.chunk_span(offset, nbytes)
        yield from self._before_read(span)
        missing = self.chunks.missing_in(span)
        if missing.size:
            # Copy-on-reference: base-image chunks come from the repository
            # and land in the host page cache (write-back persists them to
            # the local disk asynchronously).
            pb = self.env.probe
            if pb.enabled:
                pb.instant("cor.fetch", cat="storage",
                           tid=f"io:{self.vm.name}",
                           args={"chunks": int(missing.size)}, full=True)
            yield from self._repo_fetch(missing)
            self.chunks.record_fetch(missing)
            self.vdisk.disk.touch(missing)
        yield self.pagecache.read(nbytes)
        self.vdisk.disk.touch(span)
        self.vm.note_read(nbytes)

    def write(self, offset: int, nbytes: int) -> Generator:
        """Guest write (Algorithm 2 in the hybrid subclass)."""
        span = self.chunks.chunk_span(offset, nbytes)
        partial = self._partial_chunks(offset, nbytes, span)
        missing_partials = self.chunks.missing_in(partial)
        if missing_partials.size:
            # Read-modify-write: a partial write into a never-seen chunk
            # needs the chunk's base content first.
            yield from self._repo_fetch(missing_partials)
            self.chunks.record_fetch(missing_partials)
        yield from self._absorb_write(span, nbytes)
        versions = self.vm.bump_content(span)
        self.chunks.record_write(span, count_writes=self._count_writes)
        self.chunks.version[span] = versions
        self.vdisk.disk.touch(span)
        self.vm.note_write(nbytes)
        pb = self.env.probe
        if pb.enabled:
            # One probe covers every engine: the guest write rate the
            # dirty-rate overlay in the flight report compares against.
            pb.inc(f"writes.chunks:{self.vm.name}", self.env.now,
                   int(span.size), unit="chunks")
        yield from self._after_write(span, nbytes)

    def _partial_chunks(
        self, offset: int, nbytes: int, span: np.ndarray
    ) -> np.ndarray:
        """Chunks in ``span`` only partially covered by the write."""
        if span.size == 0 or nbytes == 0:
            return span[:0]
        cs = self.chunk_size
        partial = []
        if offset % cs != 0:
            partial.append(span[0])
        end = offset + nbytes
        if end % cs != 0 and (span.size > 1 or not partial):
            if span[-1] not in partial:
                partial.append(span[-1])
        return np.asarray(partial, dtype=np.intp)

    # -- strategy hooks on the I/O path -------------------------------------------
    def _before_read(self, span: np.ndarray) -> Generator:
        """Subclass hook: runs before presence is checked (on-demand pull)."""
        return
        yield  # pragma: no cover

    def _absorb_write(self, span: np.ndarray, nbytes: int) -> Generator:
        """Subclass hook: how a guest write's data lands (default: local
        page-cache absorption at the guest write ceiling)."""
        yield self.pagecache.write(nbytes)

    def _after_write(self, span: np.ndarray, nbytes: int) -> Generator:
        """Subclass hook: post-write bookkeeping (push requeue, mirroring)."""
        return
        yield  # pragma: no cover

    # -- migration lifecycle (driven by the hypervisor) ----------------------------
    def on_migration_request(self, dst_node: "ComputeNode") -> Generator:
        """MIGRATION_REQUEST on the source (Algorithm 1).

        The base manager spawns the destination twin and notifies it; no
        storage moves (the pvfs-shared behaviour).
        """
        peer = self.spawn_peer(dst_node)
        self.is_source = True
        peer.is_destination = True
        yield self.fabric.message(self.host, peer.host, tag="control",
                                  cause="control")

    def ready_for_control(self) -> bool:
        """May the hypervisor enter the stop-and-copy phase?"""
        return True

    def backlog_bytes(self) -> float:
        """Storage bytes still owed to the destination (diagnostics)."""
        return 0.0

    def on_sync(self) -> Generator:
        """The hypervisor's ``sync`` just before downtime (Section 4.4)."""
        self._count_writes = False
        return
        yield  # pragma: no cover

    def on_downtime(self) -> Generator:
        """Runs while the VM is paused (final storage flush for pre-copy)."""
        return
        yield  # pragma: no cover

    def on_control_transferred(self) -> Generator:
        """Runs right after the VM resumed on the destination.

        The base behaviour releases the source immediately (approaches
        whose storage is already consistent at control transfer).
        """
        if not self.release_event.triggered:
            self.release_event.succeed(self.env.now)
        return
        yield  # pragma: no cover

    def cancel_migration(self) -> None:
        """Abort an in-progress migration on the source side.

        Called when the destination fails (or the middleware withdraws
        the request) *before* control transfer: background engines stop,
        the source keeps serving its VM as if nothing happened, and the
        half-populated destination twin is discarded.  Post-control
        cancellation is not possible — the VM already runs on the
        destination (the safety trade-off Section 6 discusses).
        """
        if self.is_destination:
            raise RuntimeError("cannot cancel from the destination side")
        self._count_writes = False
        self.is_source = False
        self.peer = None
        self._abortable = False
        self.migration_proc = None

    # -- data-plane receive helpers --------------------------------------------
    def receive_chunks(self, chunk_ids: np.ndarray, versions: np.ndarray) -> None:
        """Adopt pushed chunk contents, never regressing a newer version.

        Chunks whose incoming version is not newer still become locally
        present (unwritten base-image content pushed by a full-image
        migrator carries version 0).
        """
        chunk_ids = np.asarray(chunk_ids, dtype=np.intp)
        newer = versions > self.chunks.version[chunk_ids]
        take = chunk_ids[newer]
        pb = self.env.probe
        if pb.enabled:
            pb.instant("adopt", cat="storage", tid=f"io:{self.vm.name}",
                       args={"chunks": int(take.size),
                             "stale_chunks": int(chunk_ids.size - take.size)},
                       full=True)
        if take.size:
            self.chunks.adopt_versions(take, versions[newer])
            # Adopted content with a non-zero version diverges from the
            # base image: it belongs to this side's ModifiedSet, so a
            # *future* migration from here transfers it onward.
            self.chunks.modified[take] = True
        rest = chunk_ids[~newer]
        if rest.size:
            self.chunks.record_fetch(rest)

    def __repr__(self) -> str:
        role = (
            "source"
            if self.is_source
            else ("destination" if self.is_destination else "idle")
        )
        return f"<{type(self).__name__} vm={self.vm.name} node={self.node.name} {role}>"
