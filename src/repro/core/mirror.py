"""``mirror``: synchronous write mirroring (Haselhorst et al., PDP'11).

Phase 1 copies the already-modified chunks to the destination in the
background; from the migration request onward every guest write is issued
in parallel to the destination and **completes on the source only after it
completed on the destination** — the defining property of the approach and
the source of its write-latency penalty under I/O intensive workloads.

Because writes are mirrored, nothing is ever re-sent (each chunk crosses
the wire once in phase 1 plus once per write), and storage is fully
consistent at control transfer: the source is released the moment control
moves.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.manager import MigrationManager
from repro.simkernel.core import Event

__all__ = ["MirrorManager"]


class MirrorManager(MigrationManager):
    """Synchronous dual-write migration baseline."""

    name = "mirror"
    strategy_summary = "Sync writes both at src and dest"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._bulk_proc = None
        self._mirroring = False
        self._outstanding = 0
        self._drained: Event | None = None
        self.stats = {"bulk_chunks": 0, "mirrored_writes": 0}

    # ------------------------------------------------------------------ source
    def on_migration_request(self, dst_node) -> Generator:
        peer = self.spawn_peer(dst_node)
        self.is_source = True
        peer.is_destination = True
        yield self.fabric.message(self.host, peer.host, tag="control",
                                  cause="control")
        self._mirroring = True
        self._bulk_proc = self.env.process(
            self._bulk_copy(), name=f"mirror-bulk:{self.vm.name}"
        )

    def _bulk_copy(self) -> Generator:
        """Phase 1: ship the pre-request ModifiedSet to the destination."""
        ids = self.chunks.modified_set()
        cfg = self.config
        peer = self.peer
        for start in range(0, ids.size, cfg.push_batch):
            if self.peer is not peer:
                return  # cancelled
            batch = ids[start : start + cfg.push_batch]
            versions = self.chunks.version[batch].copy()
            nbytes = float(batch.size * self.chunk_size)
            t0 = self.env.now

            def batch_events(peer=peer, batch=batch, nbytes=nbytes):
                return [
                    self.vdisk.load(batch),
                    self.pagecache.read(nbytes),
                    self.fabric.transfer(
                        self.host, peer.host, nbytes, tag="storage-push",
                        cause="push"
                    ),
                    peer.pagecache.write(nbytes),
                ]

            ok = yield from self._transfer_attempts(batch_events, "mirror-bulk")
            if self.peer is not peer:
                return
            if not ok:
                self.request_abort(
                    "mirror bulk copy stalled past its retry budget"
                )
                return
            peer.receive_chunks(batch, versions)
            peer.vdisk.disk.touch(batch)
            self.stats["bulk_chunks"] += int(batch.size)
            pb = self.env.probe
            if pb.enabled:
                now = self.env.now
                pb.inc(f"progress.bulk:{self.vm.name}", now,
                       int(batch.size), unit="chunks")
                pb.complete("mirror.bulk.batch", t0, now,
                            cat="storage", tid=f"mirror:{self.vm.name}",
                            args={"chunks": int(batch.size)})

    def _after_write(self, span: np.ndarray, nbytes: int) -> Generator:
        """Mirror the write; the guest blocks until the destination ack."""
        if not (self.is_source and self._mirroring):
            return
        self._outstanding += 1
        pb = self.env.probe
        if pb.enabled:
            pb.gauge(f"mirror.outstanding:{self.vm.name}", self.env.now,
                     self._outstanding, unit="writes")
        peer = self.peer
        try:
            versions = self.chunks.version[span].copy()
            ok = yield from self._transfer_attempts(
                lambda: [
                    self.fabric.transfer(
                        self.host, peer.host, float(nbytes), tag="storage-mirror",
                        cause="mirror"
                    )
                ],
                "mirror-write",
            )
            if not ok:
                # The destination stopped acknowledging: the write already
                # landed locally, so stop mirroring and abort the
                # migration rather than stall the guest forever.
                self._mirroring = False
                self.request_abort(
                    "mirrored write stalled past its retry budget"
                )
                return
            if not self.config.mirror_sync_writes:
                # Async variant (ablation): ack without waiting for the
                # destination's persistence.
                pass
            if self.peer is peer:
                peer.receive_chunks(span, versions)
                peer.vdisk.disk.touch(span)
                self.stats["mirrored_writes"] += 1
                if pb.enabled:
                    pb.inc(f"progress.mirrored:{self.vm.name}", self.env.now,
                           1, unit="writes")
                    pb.instant("mirror.write", cat="storage",
                               tid=f"mirror:{self.vm.name}",
                               args={"bytes": float(nbytes)}, full=True)
        finally:
            self._outstanding -= 1
            if pb.enabled:
                pb.gauge(f"mirror.outstanding:{self.vm.name}", self.env.now,
                         self._outstanding, unit="writes")
            if self._outstanding == 0 and self._drained is not None:
                if not self._drained.triggered:
                    self._drained.succeed()

    def cancel_migration(self) -> None:
        self._mirroring = False
        self._bulk_proc = None
        super().cancel_migration()

    def ready_for_control(self) -> bool:
        return self._bulk_proc is not None and not self._bulk_proc.is_alive

    def backlog_bytes(self) -> float:
        if self._bulk_proc is not None and self._bulk_proc.is_alive:
            return float(
                (self.chunks.modified & ~self.peer.chunks.present).sum()
            ) * self.chunk_size
        return 0.0

    def on_sync(self) -> Generator:
        """Wait for phase 1 and all in-flight mirrored writes to land.

        Mirroring stays ON: guest writes that drain during the downtime
        must still reach the destination.
        """
        self._count_writes = False
        if self._bulk_proc is not None and self._bulk_proc.is_alive:
            yield self._bulk_proc
        if self._outstanding > 0:
            self._drained = self.env.event()
            yield self._drained

    def on_downtime(self) -> Generator:
        """VM paused and drained: every write has been mirrored."""
        if self._outstanding > 0:  # pragma: no cover - drain guarantees 0
            self._drained = self.env.event()
            yield self._drained
        self._mirroring = False
