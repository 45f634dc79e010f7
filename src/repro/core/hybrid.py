"""``our-approach``: hybrid active push / prioritized prefetch (Section 4).

Source side (Algorithms 1-2):

* On MIGRATION_REQUEST, ``RemainingSet <- ModifiedSet``, all write counts
  reset, and BACKGROUND_PUSH starts shipping chunks whose
  ``WriteCount < Threshold`` to the destination.
* A write re-queues the chunk and bumps its write count; once the count
  reaches ``Threshold`` the chunk is *hot* and is skipped by the push (it
  will be prefetched later) — each chunk therefore crosses the wire at most
  ``Threshold`` times before control transfer.

Transfer of control (Algorithm 3):

* ``on_sync`` (the hypervisor's ``sync`` right before downtime) stops the
  push and sends TRANSFER_IO_CONTROL with the remaining chunk list and
  write counts; the source turns passive.

Destination side (Algorithms 3-4):

* BACKGROUND_PULL prefetches the remaining chunks in decreasing write-count
  order (hot chunks are the likeliest to be read soon).
* A guest read of a not-yet-pulled chunk suspends the background pull and
  fetches the chunk with priority; a guest write cancels the chunk's pull
  outright (its content is dead).
* When the remaining set drains, the source is released — that moment ends
  the migration-time clock.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.chunkqueue import ChunkQueue, take_valid
from repro.core.manager import MigrationManager
from repro.obs.causal.record import annotate
from repro.simkernel.core import Event
from repro.simkernel.events import Interrupt

__all__ = ["HybridManager", "FATE_NAMES"]

#: Final transfer fate of a chunk (destination side, last writer wins).
#: 0 = never transferred; the rest feed the write-count × fate heatmap
#: that explains the Threshold cutoff (repro.obs.analyze.heatmap).
_FATE_PUSHED = 1
_FATE_PREFETCHED = 2
_FATE_ONDEMAND = 3
_FATE_CANCELLED = 4
FATE_NAMES = {
    _FATE_PUSHED: "pushed",
    _FATE_PREFETCHED: "prefetched",
    _FATE_ONDEMAND: "ondemand",
    _FATE_CANCELLED: "cancelled",
}
#: Write counts at or above the cap share one "N+" heatmap row.
_WC_CAP = 8


class HybridManager(MigrationManager):
    """The paper's hybrid push/prefetch migration manager."""

    name = "our-approach"
    strategy_summary = "Active push below Threshold, then prioritized prefetch"
    #: Class-level knob so PostcopyManager can disable the push phase while
    #: sharing every other code path (exactly how the paper builds its
    #: postcopy baseline from this implementation).
    push_enabled = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n = self.chunks.n_chunks
        # Source-side state.
        self.remaining = np.zeros(n, dtype=bool)
        self._push_proc = None
        self._push_stop = False
        self._push_wakeup: Event | None = None
        # Incremental push candidate queue: seeded with the eligible set at
        # MIGRATION_REQUEST, fed by write re-queues, consumed by the push
        # loop.  Invariant: every eligible chunk (remaining & cold) is
        # queued, so a take() that comes up empty means nothing to push.
        self._push_queue: ChunkQueue | None = None
        # Destination-side state.
        self.pull_pending = np.zeros(n, dtype=bool)
        self._pull_order_wc: np.ndarray | None = None
        # Precomputed prefetch order + consume cursor ("fifo"/"writecount"
        # policies; "random" reshuffles per wakeup and keeps the rescan).
        self._pull_order: np.ndarray | None = None
        self._pull_pos = 0
        self._pull_inflight: dict[int, Event] = {}
        self._pull_cancelled = np.zeros(n, dtype=bool)
        self._ondemand_depth = 0
        self._pull_resume: Event | None = None
        self._pull_proc = None
        #: Destination-side per-chunk transfer fate (see FATE_NAMES).
        self._fate = np.zeros(n, dtype=np.int8)
        #: Push/pull engine statistics (exposed for tests and ablations).
        self.stats = {
            "pushed_chunks": 0,
            "pulled_chunks": 0,
            "ondemand_chunks": 0,
            "skipped_hot_chunks": 0,
            "cancelled_pulls": 0,
            "wire_bytes_saved": 0.0,
        }
        # Wire codec (dedup/compression, off by default).
        self._codec = self.config.codec()
        self._known_fps: set[int] = set()
        self._compressor = None
        if self._codec.enabled and self._codec.compression_bw != float("inf"):
            from repro.simkernel.fluid import FluidShare

            self._compressor = FluidShare(
                self.env, self._codec.compression_bw,
                name=f"compressor:{self.vm.name}",
            )

    # ---------------------------------------------------------------- codec
    def _fps(self, chunk_ids: np.ndarray, versions: np.ndarray) -> np.ndarray:
        from repro.core.codec import content_fingerprints

        return content_fingerprints(
            chunk_ids, versions, self.vm.content_pool, seed=self.config.seed
        )

    def _note_content(self, chunk_ids: np.ndarray, versions: np.ndarray) -> None:
        if self._codec.dedup:
            self._known_fps.update(
                int(x) for x in self._fps(chunk_ids, versions)
            )

    def receive_chunks(self, chunk_ids: np.ndarray, versions: np.ndarray) -> None:
        super().receive_chunks(chunk_ids, versions)
        self._note_content(chunk_ids, versions)

    def _wire_events(
        self, sender: "HybridManager", batch: np.ndarray,
        versions: np.ndarray, nbytes: float,
    ) -> tuple[float, list]:
        """Wire bytes + extra pipeline stages the codec imposes.

        The receiver is always ``self`` when pulling and ``self.peer``
        when pushing — callers pass the *sender*; the receiver is the
        other side.
        """
        receiver = self.peer if sender is self else self
        if not self._codec.enabled:
            return nbytes, []
        fps = sender._fps(batch, versions)
        wire, compress_in, _ = self._codec.wire_cost(
            fps, self.chunk_size, receiver._known_fps
        )
        sender.stats["wire_bytes_saved"] += max(nbytes - wire, 0.0)
        extra = []
        if sender._compressor is not None and compress_in > 0:
            extra.append(sender._compressor.transfer(compress_in))
        return wire, extra

    # ------------------------------------------------------------------ source
    def on_migration_request(self, dst_node) -> Generator:
        """Algorithm 1: become the source, start BACKGROUND_PUSH."""
        peer = self.spawn_peer(dst_node)
        self.is_source = True
        peer.is_destination = True
        self.chunks.reset_write_counts()
        self._count_writes = True
        self.remaining = self.chunks.modified.copy()
        # Write counts were just reset, but Threshold may be 0 (pure
        # postcopy ablation), so the eligibility filter still applies.
        self._push_queue = ChunkQueue(np.flatnonzero(
            self.remaining & (self.chunks.write_count < self.config.threshold)
        ))
        pb = self.env.probe
        if pb.enabled:
            remaining = int(self.remaining.sum())
            pb.instant("push.start", cat="storage",
                       tid=f"push:{self.vm.name}",
                       args={"remaining_chunks": remaining,
                             "threshold": self.config.threshold})
            pb.gauge(f"push.remaining:{self.vm.name}", self.env.now,
                     remaining, unit="chunks")
        # MIGRATION_NOTIFICATION to the destination.
        yield self.fabric.message(self.host, peer.host, tag="control",
                                  cause="control")
        if self.push_enabled:
            self._push_stop = False
            self._push_proc = self.env.process(
                self._background_push(), name=f"push:{self.vm.name}"
            )

    def _next_push_batch(self) -> np.ndarray:
        """Consume the next eligible push batch from the candidate queue.

        Equivalent to ``flatnonzero(remaining & cold)[:push_batch]`` — the
        queue holds ascending ids and take() re-checks eligibility — but
        examines only ~batch-size entries instead of the whole bitmap.
        """
        queue = self._push_queue
        assert queue is not None
        remaining = self.remaining
        wc = self.chunks.write_count
        threshold = self.config.threshold
        batch, examined = queue.take(
            self.config.push_batch,
            lambda cand: remaining[cand] & (wc[cand] < threshold),
        )
        prof = self.env.profiler
        if prof.enabled:
            # Work the push loop performs per wakeup: queue entries
            # examined plus the batch it yields.  Before the incremental
            # queue, `push_scanned` was the full bitmap size per scan.
            prof.count("chunks.push_scans")
            prof.count("chunks.push_scanned", examined)
            prof.count("chunks.push_eligible", int(batch.size))
        return batch

    def _background_push(self) -> Generator:
        """Algorithm 1's BACKGROUND_PUSH, batched."""
        while True:
            if self._push_stop:
                return
            batch = self._next_push_batch()
            if batch.size == 0:
                self._push_wakeup = annotate(
                    self.env, self.env.event(), "idle.push_wait",
                )
                try:
                    yield self._push_wakeup
                except Interrupt:
                    return
                continue
            # Removed from RemainingSet at send time; a concurrent write
            # re-queues the chunk (Algorithm 2 line 10).
            self.remaining[batch] = False
            versions = self.chunks.version[batch].copy()
            peer = self.peer
            nbytes = float(batch.size * self.chunk_size)
            # The moved bytes traverse: source disk (warm chunks come from
            # the host cache), the source manager's read path (contending
            # with guest reads), the fabric, the destination manager's
            # write path (contending with guest writes there).  The stages
            # pipeline, so batch completion is governed by the slowest;
            # arriving data is cache-absorbed and written back lazily.
            wire, extra = self._wire_events(self, batch, versions, nbytes)
            t0 = self.env.now

            def batch_events(peer=peer, batch=batch, nbytes=nbytes,
                             wire=wire, extra=extra):
                return [
                    self.vdisk.load(batch),
                    self.pagecache.read(nbytes),
                    self.fabric.transfer(
                        self.host, peer.host, wire, tag="storage-push",
                        cause="push",
                    ),
                    peer.pagecache.write(nbytes),
                    *extra,
                ]

            ok = yield from self._transfer_attempts(batch_events, "push")
            if self.peer is not peer:
                return  # migration cancelled mid-batch: drop the payload
            if not ok:
                self.request_abort("push batch stalled past its retry budget")
                return
            peer.receive_chunks(batch, versions)
            peer.vdisk.disk.touch(batch)
            peer._fate[batch] = _FATE_PUSHED
            self.stats["pushed_chunks"] += int(batch.size)
            pb = self.env.probe
            if pb.enabled:
                now = self.env.now
                pb.gauge(f"push.remaining:{self.vm.name}", now,
                         int(self.remaining.sum()), unit="chunks")
                pb.inc(f"progress.pushed:{self.vm.name}", now,
                       int(batch.size), unit="chunks")
                pb.complete("push.batch", t0, now, cat="storage",
                            tid=f"push:{self.vm.name}",
                            args={"chunks": int(batch.size),
                                  "wire_bytes": wire})

    def _notify_push(self) -> None:
        if self._push_wakeup is not None and not self._push_wakeup.triggered:
            self._push_wakeup.succeed()
            self._push_wakeup = None

    def _after_write(self, span: np.ndarray, nbytes: int) -> Generator:
        """Algorithm 2, source part: re-queue written chunks and notify."""
        self._note_content(span, self.chunks.version[span])
        if self.is_source and self._count_writes:
            self.remaining[span] = True
            hot = self.chunks.write_count[span] >= self.config.threshold
            n_hot = int(hot.sum())
            self.stats["skipped_hot_chunks"] += n_hot
            if self._push_queue is not None and n_hot < span.size:
                # Re-queue the still-cold chunks; hot ones are excluded
                # for good (write counts never decrease mid-migration).
                self._push_queue.push(span if n_hot == 0 else span[~hot])
            pb = self.env.probe
            if pb.enabled:
                now = self.env.now
                pb.gauge(f"push.remaining:{self.vm.name}", now,
                         int(self.remaining.sum()), unit="chunks")
                if n_hot:
                    pb.instant("push.hot_exclusion", cat="storage",
                               tid=f"push:{self.vm.name}",
                               args={"chunks": n_hot})
                    pb.inc(f"push.hot_excluded:{self.vm.name}", now,
                           n_hot, unit="chunks")
            self._notify_push()
        if self.is_destination:
            self._cancel_pulls(span)
        return
        yield  # pragma: no cover

    def backlog_bytes(self) -> float:
        if self.is_source:
            return float(self.remaining.sum()) * self.chunk_size
        return 0.0

    def on_sync(self) -> Generator:
        """Stop the push engine.  Writes may still be draining, so the
        remaining set is NOT snapshotted yet — ``_count_writes`` stays on
        and late writes keep re-queueing themselves (Algorithm 2)."""
        pb = self.env.probe
        if pb.enabled:
            now = self.env.now
            remaining = int(self.remaining.sum())
            pb.instant("push.stop", cat="storage", tid=f"push:{self.vm.name}",
                       args={"remaining_chunks": remaining})
            pb.gauge(f"push.remaining:{self.vm.name}", now, remaining,
                     unit="chunks")
            # Write-count histogram over the still-remaining set: the
            # distribution Threshold reasons about, at the sync point.
            wc = np.minimum(
                self.chunks.write_count[self.remaining], _WC_CAP
            )
            counts = np.bincount(wc, minlength=_WC_CAP + 1)
            pb.distribution(
                f"dist.write_count:{self.vm.name}", now,
                [[w, "remaining", int(n)]
                 for w, n in enumerate(counts) if n],
            )
        self._push_stop = True
        self._notify_push()
        if self._push_proc is not None and self._push_proc.is_alive:
            yield self._push_proc

    def on_downtime(self) -> Generator:
        """VM paused and I/O drained: send TRANSFER_IO_CONTROL with the
        now-final remaining chunk list and write counts (Algorithm 3)."""
        self._count_writes = False
        remaining_ids = np.flatnonzero(self.remaining)
        pb = self.env.probe
        if pb.enabled:
            pb.instant("transfer_io_control", cat="storage",
                       tid=f"push:{self.vm.name}",
                       args={"remaining_chunks": int(remaining_ids.size)})
            pb.gauge(f"push.remaining:{self.vm.name}", self.env.now,
                     int(remaining_ids.size), unit="chunks")
        # The chunk list + write counts travel as a control message
        # (8 bytes of id + 8 of count per entry).
        ok = yield from self._message_attempts(
            lambda: self.fabric.message(
                self.host,
                self.peer.host,
                nbytes=16.0 * remaining_ids.size + 512,
                tag="control",
                cause="control",
            ),
            "transfer-io-control",
        )
        if not ok:
            from repro.core.manager import ChunkTransferStalled

            raise ChunkTransferStalled(
                "TRANSFER_IO_CONTROL undeliverable: destination unreachable "
                "during downtime"
            )
        self.peer._install_pull_set(
            remaining_ids, self.chunks.write_count[remaining_ids].copy()
        )

    def on_control_transferred(self) -> Generator:
        """Source is passive; destination starts BACKGROUND_PULL."""
        peer = self.peer
        assert peer is not None
        peer._start_pull()
        # The source is relinquished when the destination drained the set.
        return
        yield  # pragma: no cover

    def cancel_migration(self) -> None:
        """Stop the push engine and forget the migration state."""
        self._push_stop = True
        self._notify_push()
        if self._push_proc is not None and self._push_proc.is_alive:
            # The engine exits at its next checkpoint; detach regardless.
            self._push_proc = None
        self.remaining[:] = False
        self._push_queue = None
        super().cancel_migration()

    # -------------------------------------------------------------- destination
    def _install_pull_set(self, chunk_ids: np.ndarray, write_counts: np.ndarray) -> None:
        """TRANSFER_IO_CONTROL receive side (Algorithm 3)."""
        self.pull_pending[:] = False
        self.pull_pending[chunk_ids] = True
        wc = np.zeros(self.chunks.n_chunks, dtype=np.int64)
        wc[chunk_ids] = write_counts
        self._pull_order_wc = wc
        self._rebuild_pull_queue(chunk_ids)
        self._note_queue_depth(int(chunk_ids.size))

    def _rebuild_pull_queue(self, pending_ids: np.ndarray | None = None) -> None:
        """Materialize the prefetch order for the current pending set.

        The pending set only shrinks between rebuilds (pulls, local
        writes), and dropping entries from a sorted order preserves it, so
        the order is computed once here and consumed with a cursor.  The
        only path that re-adds pending chunks — a stalled pull batch —
        rebuilds.  The "random" policy reshuffles per wakeup (its rng is
        keyed on in-flight state) and keeps the legacy full rescan.
        """
        policy = self.config.prefetch_policy
        if policy == "random":
            self._pull_order = None
            self._pull_pos = 0
            return
        if pending_ids is None:
            pending_ids = np.flatnonzero(self.pull_pending)
        if policy == "writecount":
            assert self._pull_order_wc is not None
            # Decreasing write count; stable on chunk index for determinism.
            order = np.argsort(-self._pull_order_wc[pending_ids], kind="stable")
            pending_ids = pending_ids[order]
        # "fifo": natural chunk-index order.
        self._pull_order = pending_ids
        self._pull_pos = 0

    def _note_queue_depth(self, depth: int) -> None:
        pb = self.env.probe
        if pb.enabled:
            pb.counter(f"prefetch.queue_depth:{self.vm.name}",
                       {"chunks": depth})
            pb.gauge(f"pull.pending:{self.vm.name}", self.env.now, depth,
                     unit="chunks")

    def _start_pull(self) -> None:
        self._pull_proc = self.env.process(
            self._background_pull(), name=f"pull:{self.vm.name}"
        )

    def _pull_priority_batch(self) -> np.ndarray:
        """Next prefetch batch under the configured policy."""
        prof = self.env.profiler
        order = self._pull_order
        if order is None:
            # Legacy rescan, kept for the "random" ablation policy only.
            pending = np.flatnonzero(self.pull_pending)
            if prof.enabled:
                prof.count("chunks.pull_scans")
                prof.count("chunks.pull_scanned", int(self.pull_pending.size))
                prof.count("chunks.pull_pending", int(pending.size))
            if pending.size == 0:
                return pending
            rng = np.random.default_rng(
                self.config.seed + len(self._pull_inflight)
            )
            pending = rng.permutation(pending)
            return pending[: self.config.pull_batch]
        pull_pending = self.pull_pending
        batch, self._pull_pos, examined = take_valid(
            order, self._pull_pos, self.config.pull_batch,
            lambda cand: pull_pending[cand],
        )
        if prof.enabled:
            prof.count("chunks.pull_scans")
            prof.count("chunks.pull_scanned", examined)
            prof.count("chunks.pull_pending", int(pull_pending.sum()))
        return batch

    def _background_pull(self) -> Generator:
        """Algorithm 3's BACKGROUND_PULL with suspension for on-demand reads."""
        while True:
            if self._ondemand_depth > 0:
                # Algorithm 4: suspended while a priority read is in flight.
                self._pull_resume = annotate(
                    self.env, self.env.event(), "stall.ondemand_suspend",
                )
                yield self._pull_resume
                continue
            batch = self._pull_priority_batch()
            if batch.size == 0:
                if self._pull_inflight:
                    yield self.env.all_of(list(self._pull_inflight.values()))
                    continue
                break
            t0 = self.env.now
            ok = yield from self._pull(batch, weight=1.0, cause="prefetch")
            if not ok:
                # The source became unreachable after control transfer —
                # the unsafe corner of the scheme (paper, Section 6).
                # Stop prefetching: the source is never released, and
                # on-demand reads surface the failure loudly.
                return
            self.stats["pulled_chunks"] += int(batch.size)
            pb = self.env.probe
            if pb.enabled:
                now = self.env.now
                pb.inc(f"progress.prefetched:{self.vm.name}", now,
                       int(batch.size), unit="chunks")
                pb.complete("prefetch.batch", t0, now, cat="storage",
                            tid=f"pull:{self.vm.name}",
                            args={"chunks": int(batch.size),
                                  "max_write_count": int(
                                      self._pull_order_wc[batch].max()
                                  )})
            self._note_queue_depth(int(self.pull_pending.sum()))
        yield from self._finish_migration()

    def _pull(self, batch: np.ndarray, weight: float,
              cause: str = "prefetch") -> Generator:
        """Pull ``batch`` from the passive source.

        ``cause`` attributes the moved bytes: ``prefetch`` for the
        background engine, ``pull.demand`` for priority reads.

        Returns ``True`` when the data landed, ``False`` when the
        request or the transfer stalled past the retry budget (source
        unreachable after control transfer).  On ``False`` the batch is
        re-marked pending (minus locally overwritten chunks) and waiting
        readers are released — the callers decide how to surface it.
        """
        src = self.peer
        assert src is not None
        self.pull_pending[batch] = False
        arrival = Event(self.env)
        for c in batch:
            self._pull_inflight[int(c)] = arrival
        # Pull request (control), then the pipelined data path: source
        # disk + source read path, fabric, destination write path + disk.
        ok = yield from self._message_attempts(
            lambda: self.fabric.message(self.host, src.host, tag="control",
                                        cause="control"),
            "pull-request",
        )
        if not ok:
            self._pull_failed(batch, arrival)
            return False
        nbytes = float(batch.size * self.chunk_size)
        versions = src.chunks.version[batch].copy()
        wire, extra = self._wire_events(src, batch, versions, nbytes)

        def batch_events(src=src, batch=batch, nbytes=nbytes,
                         wire=wire, extra=extra, weight=weight, cause=cause):
            return [
                src.vdisk.load(batch),
                src.pagecache.read(nbytes),
                self.fabric.transfer(
                    src.host, self.host, wire, tag="storage-pull",
                    weight=weight, cause=cause,
                ),
                self.pagecache.write(nbytes),
                *extra,
            ]

        ok = yield from self._transfer_attempts(batch_events, "pull")
        if not ok:
            self._pull_failed(batch, arrival)
            return False
        self.vdisk.disk.touch(batch)
        # Adopt everything that was not overwritten locally in the meantime.
        alive = batch[~self._pull_cancelled[batch]]
        self.stats["cancelled_pulls"] += int(batch.size - alive.size)
        if alive.size:
            self.receive_chunks(alive, src.chunks.version[alive].copy())
            self._fate[alive] = (
                _FATE_ONDEMAND if cause == "pull.demand" else _FATE_PREFETCHED
            )
        for c in batch:
            self._pull_inflight.pop(int(c), None)
        arrival.succeed()
        return True

    def _pull_failed(self, batch: np.ndarray, arrival: Event) -> None:
        """Bookkeeping for a stalled pull: re-mark the batch pending
        (except chunks overwritten locally) and release waiting reads."""
        pb = self.env.probe
        if pb.enabled:
            pb.instant("pull.stalled", cat="faults",
                       tid=f"pull:{self.vm.name}",
                       args={"chunks": int(batch.size)})
        self.pull_pending[batch] = ~self._pull_cancelled[batch]
        # The cursor already passed these ids; rebuild the order so the
        # re-marked chunks are prefetched again (rare fault path).
        self._rebuild_pull_queue()
        for c in batch:
            self._pull_inflight.pop(int(c), None)
        arrival.succeed()

    def _cancel_pulls(self, span: np.ndarray) -> None:
        """Algorithm 2, destination part: a write kills the chunk's pull."""
        pb = self.env.probe
        if pb.enabled:
            killed = int(self.pull_pending[span].sum())
            if killed:
                pb.instant("pull.cancelled", cat="storage",
                           tid=f"pull:{self.vm.name}",
                           args={"chunks": killed}, full=True)
        self._fate[span[self.pull_pending[span]]] = _FATE_CANCELLED
        self.pull_pending[span] = False
        self._pull_cancelled[span] = True

    def _resume_pull(self) -> None:
        if self._pull_resume is not None and not self._pull_resume.triggered:
            self._pull_resume.succeed()
            self._pull_resume = None

    def _before_read(self, span: np.ndarray) -> Generator:
        """Algorithm 4: priority handling for reads of remaining chunks."""
        if not self.is_destination:
            return
        # Case 1: wait for chunks already being pulled.
        inflight = [
            self._pull_inflight[int(c)] for c in span if int(c) in self._pull_inflight
        ]
        # Case 2: on-demand pull for still-pending chunks.
        needed = span[self.pull_pending[span]]
        if needed.size:
            self._ondemand_depth += 1
            t0 = self.env.now
            try:
                ok = yield from self._pull(
                    needed, weight=self.config.ondemand_weight,
                    cause="pull.demand",
                )
                if not ok:
                    from repro.core.manager import ChunkTransferStalled

                    raise ChunkTransferStalled(
                        f"on-demand pull of {int(needed.size)} chunk(s) "
                        "stalled: source unreachable after control transfer"
                    )
                self.stats["ondemand_chunks"] += int(needed.size)
                pb = self.env.probe
                if pb.enabled:
                    now = self.env.now
                    pb.inc(f"progress.ondemand:{self.vm.name}", now,
                           int(needed.size), unit="chunks")
                    # Overlapping guest reads overlap their pulls: async lane.
                    pb.async_span("pull.demand", t0, now,
                                  cat="storage", tid=f"pull:{self.vm.name}",
                                  args={"chunks": int(needed.size)})
            finally:
                self._ondemand_depth -= 1
                if self._ondemand_depth == 0:
                    self._resume_pull()
        for ev in inflight:
            if not ev.processed:
                yield ev

    def _chunk_fate_cells(self, src: "HybridManager") -> list[list]:
        """Aggregate (write count × transfer fate) over transferred chunks.

        Write counts are the source's Algorithm 2 counts (what the
        Threshold compares against); counts at or above ``_WC_CAP`` fold
        into one "N+" row.  Returns deterministic sorted
        ``[write_count, fate, chunks]`` cells.
        """
        mask = self._fate != 0
        ids = np.flatnonzero(mask)
        if ids.size == 0:
            return []
        wc = np.minimum(src.chunks.write_count[ids], _WC_CAP)
        cells: dict[tuple[int, str], int] = {}
        for w, f in zip(wc, self._fate[ids]):
            key = (int(w), FATE_NAMES[int(f)])
            cells[key] = cells.get(key, 0) + 1
        return [[w, name, n] for (w, name), n in sorted(cells.items())]

    def _finish_migration(self) -> Generator:
        """All chunks local: notify the source it can be relinquished."""
        src = self.peer
        assert src is not None
        pb = self.env.probe
        if pb.enabled:
            now = self.env.now
            cells = self._chunk_fate_cells(src)
            pb.instant("pull.drained", cat="storage",
                       tid=f"pull:{self.vm.name}")
            pb.instant("chunks.fate", cat="storage",
                       tid=f"pull:{self.vm.name}",
                       args={"vm": self.vm.name,
                             "threshold": self.config.threshold,
                             "wc_cap": _WC_CAP,
                             "cells": cells})
            pb.gauge(f"pull.pending:{self.vm.name}", now, 0, unit="chunks")
            pb.distribution(f"dist.chunk_fate:{self.vm.name}", now, cells)
        # Best effort: if the source is unreachable the data is all here
        # anyway; release locally so the migration record completes.
        yield from self._message_attempts(
            lambda: self.fabric.message(self.host, src.host, tag="control",
                                        cause="control"),
            "release",
        )
        if not src.release_event.triggered:
            src.release_event.succeed(self.env.now)
        if not self.release_event.triggered:
            self.release_event.succeed(self.env.now)
