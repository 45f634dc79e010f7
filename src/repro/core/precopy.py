"""``precopy``: QEMU/KVM-style incremental block migration.

Local modifications live in a qcow2 snapshot; live migration pushes the
whole dirty block set to the destination and *re-sends any block that is
re-dirtied*, iterating until the unsent backlog is small enough to flush
during the stop-and-copy downtime.  Under heavy I/O the backlog can grow
as fast as it drains — the paper's "infinite dependence on the source" —
so the loop also gives up after ``precopy_rounds_max`` sweeps and forces
the final sync (QEMU's behaviour once the migration-speed/downtime limits
are relaxed; without a cap, some experiments would genuinely never end).

Guest-visible cost: QEMU 1.0's block migration runs in the I/O thread and
its qcow2 layer pays copy-on-write metadata and buffer-copy costs, so
migration block movement squeezes the guest hard on both the read path
(blocks are read for sending — the paper measures ~50 % IOR read
throughput) and the write path (dirty tracking + re-send buffering — ~25 %
IOR write throughput).  Modeled by charging each migrated batch against
the guest page-cache shares with amplification
(``write_amplification`` x bytes at ``write_weight``).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.manager import ChunkTransferStalled, MigrationManager
from repro.repository.blobseer import RepositoryUnavailable
from repro.simkernel.events import Interrupt

__all__ = ["PrecopyManager"]


class PrecopyManager(MigrationManager):
    """Incremental dirty-block pre-copy baseline."""

    name = "precopy"
    strategy_summary = "Push to dest before transfer of control"
    #: Fair-share weight of migration buffer copies against guest writes.
    write_weight = 3.0
    #: qcow2 read-modify-write amplification of migrated bytes on the
    #: source write path (dirty tracking, COW metadata, re-send buffers).
    write_amplification = 4.0
    #: Block-layer amplification on the source read path: QEMU 1.0's block
    #: migration reads the image through the main loop with buffer copies
    #: and qcow2 cluster lookups, squeezing concurrent guest reads — the
    #: paper measures IOR reads at ~50 % of maximum under precopy.
    read_amplification = 8.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n = self.chunks.n_chunks
        self.dirty = np.zeros(n, dtype=bool)
        self._sync_proc = None
        self._sync_stop = False
        self._sync_wakeup = None
        self.stats = {"sent_chunks": 0, "resent_chunks": 0, "final_chunks": 0}
        self._sent_once = np.zeros(n, dtype=bool)
        self._request_at: float | None = None

    # ------------------------------------------------------------------ source
    def on_migration_request(self, dst_node) -> Generator:
        peer = self.spawn_peer(dst_node)
        self.is_source = True
        peer.is_destination = True
        # QEMU's block migration flattens the image by default: the bulk
        # phase sweeps every allocated block of the virtual disk (base OS
        # data included, read through the COW layer).  With
        # ``precopy_flatten = False`` the destination re-opens the shared
        # backing image and only the snapshot layer (ModifiedSet) moves.
        self.dirty = self.chunks.modified.copy()
        if self.config.precopy_flatten:
            self.dirty |= self.vdisk.base_allocated_mask()
        self._request_at = self.env.now
        pb = self.env.probe
        if pb.enabled:
            pb.gauge(f"precopy.dirty:{self.vm.name}", self.env.now,
                     int(self.dirty.sum()), unit="chunks")
        yield self.fabric.message(self.host, peer.host, tag="control",
                                  cause="control")
        self._sync_stop = False
        self._sync_proc = self.env.process(
            self._background_sync(), name=f"blkmig:{self.vm.name}"
        )

    def _background_sync(self) -> Generator:
        cfg = self.config
        # The bulk sweep streams continuously; a larger batch than the
        # hybrid push keeps the event count proportional to data moved.
        bulk_batch = max(cfg.push_batch, 128)
        rounds = 0
        while rounds < cfg.precopy_rounds_max:
            if self._sync_stop:
                return
            ids = np.flatnonzero(self.dirty)
            if ids.size == 0:
                self._sync_wakeup = self.env.event()
                try:
                    yield self._sync_wakeup
                except Interrupt:
                    return
                rounds += 1
                continue
            batch = ids[:bulk_batch]
            self.dirty[batch] = False
            missing = self.chunks.missing_in(batch)
            if missing.size:
                # Reading a never-touched region through the COW layer
                # materializes it from the repository first.
                try:
                    yield from self._repo_fetch(missing)
                except RepositoryUnavailable:
                    self.request_abort(
                        "repository unreachable during precopy sweep"
                    )
                    return
                self.chunks.record_fetch(missing)
                self.vdisk.disk.touch(missing)
            versions = self.chunks.version[batch].copy()
            peer = self.peer
            nbytes = float(batch.size * self.chunk_size)
            t0 = self.env.now

            # The moved bytes pipeline through: source disk, the guest read
            # path (block reads), the guest write path (qcow2 buffer copies
            # with amplification), the fabric, the destination's write
            # path and disk.
            def batch_events(peer=peer, batch=batch, nbytes=nbytes):
                return [
                    self.vdisk.load(batch),
                    self.pagecache.read(nbytes * self.read_amplification),
                    self.pagecache.write(
                        nbytes * self.write_amplification, weight=self.write_weight
                    ),
                    self.fabric.transfer(
                        self.host, peer.host, nbytes, tag="storage-push",
                        cause="push"
                    ),
                    peer.pagecache.write(nbytes),
                ]

            ok = yield from self._transfer_attempts(batch_events, "precopy")
            if self.peer is not peer:
                return  # cancelled mid-batch
            if not ok:
                self.request_abort(
                    "precopy batch stalled past its retry budget"
                )
                return
            peer.receive_chunks(batch, versions)
            peer.vdisk.disk.touch(batch)
            resent = self._sent_once[batch]
            self.stats["sent_chunks"] += int(batch.size)
            self.stats["resent_chunks"] += int(resent.sum())
            self._sent_once[batch] = True
            pb = self.env.probe
            if pb.enabled:
                now = self.env.now
                pb.gauge(f"precopy.dirty:{self.vm.name}", now,
                         int(self.dirty.sum()), unit="chunks")
                pb.inc(f"progress.sent:{self.vm.name}", now,
                       int(batch.size), unit="chunks")
                if resent.any():
                    pb.inc(f"progress.resent:{self.vm.name}", now,
                           int(resent.sum()), unit="chunks")
                pb.complete("precopy.batch", t0, now, cat="storage",
                            tid=f"blkmig:{self.vm.name}",
                            args={"chunks": int(batch.size),
                                  "resent": int(resent.sum())})

    def _notify_sync(self) -> None:
        if self._sync_wakeup is not None and not self._sync_wakeup.triggered:
            self._sync_wakeup.succeed()
            self._sync_wakeup = None

    def _after_write(self, span: np.ndarray, nbytes: int) -> Generator:
        # Dirty-marking continues even after the sweep stopped: writes
        # draining during the stop-and-copy are flushed by on_downtime.
        if self.is_source and self._sync_proc is not None:
            self.dirty[span] = True
            pb = self.env.probe
            if pb.enabled:
                pb.gauge(f"precopy.dirty:{self.vm.name}", self.env.now,
                         int(self.dirty.sum()), unit="chunks")
            self._notify_sync()
        return
        yield  # pragma: no cover

    def ready_for_control(self) -> bool:
        if self._sync_proc is None:
            return True
        if not self._sync_proc.is_alive:
            return True  # round cap hit: forced convergence
        if (
            self._request_at is not None
            and self.env.now - self._request_at >= self.config.precopy_force_after
        ):
            # Hard safety valve: give up waiting for the dirty set to drain
            # and accept a long final flush (QEMU would block I/O instead).
            return True
        return self.backlog_bytes() <= self.config.precopy_dirty_target

    def backlog_bytes(self) -> float:
        return float(self.dirty.sum()) * self.chunk_size

    def on_sync(self) -> Generator:
        self._count_writes = False
        self._sync_stop = True
        self._notify_sync()
        if self._sync_proc is not None and self._sync_proc.is_alive:
            yield self._sync_proc

    def cancel_migration(self) -> None:
        self._sync_stop = True
        self._notify_sync()
        self.dirty[:] = False
        self._sync_proc = None
        super().cancel_migration()

    def on_downtime(self) -> Generator:
        """Flush the residual dirty blocks while the VM is paused."""
        ids = np.flatnonzero(self.dirty)
        if ids.size == 0:
            return
        t0 = self.env.now
        self.dirty[ids] = False
        missing = self.chunks.missing_in(ids)
        if missing.size:
            yield from self._repo_fetch(missing)
            self.chunks.record_fetch(missing)
            self.vdisk.disk.touch(missing)
        versions = self.chunks.version[ids].copy()
        yield self.vdisk.load(ids)
        ok = yield from self._transfer_attempts(
            lambda: [
                self.fabric.transfer(
                    self.host,
                    self.peer.host,
                    float(ids.size * self.chunk_size),
                    tag="storage-push",
                    cause="push",
                )
            ],
            "precopy-final",
        )
        if not ok:
            raise ChunkTransferStalled(
                "final precopy flush stalled: destination unreachable "
                "during downtime"
            )
        self.peer.receive_chunks(ids, versions)
        self.peer.vdisk.disk.touch(ids)
        self.stats["final_chunks"] += int(ids.size)
        pb = self.env.probe
        if pb.enabled:
            now = self.env.now
            pb.gauge(f"precopy.dirty:{self.vm.name}", now, 0, unit="chunks")
            pb.inc(f"progress.final:{self.vm.name}", now,
                   int(ids.size), unit="chunks")
            pb.complete("precopy.final_flush", t0, now,
                        cat="storage", tid=f"blkmig:{self.vm.name}",
                        args={"chunks": int(ids.size)})
