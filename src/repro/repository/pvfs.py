"""PVFS parallel-file-system model (the ``pvfs-shared`` baseline).

In the paper's third setting the base image and a shared qcow2 snapshot
both live on a PVFS deployment spanning all compute nodes, so *every* guest
I/O is remote and migration needs no storage transfer at all.  Two
calibrated facts drive the model:

* Guest reads stream from the striped servers at fabric speed — bounded by
  the client NIC (~117.5 MB/s), i.e. <10 % of the 1 GB/s cache-speed reads
  local storage achieves (Figure 3(c)).
* Guest writes through a shared qcow2 snapshot pay synchronization and
  metadata costs; the paper measures <5 % of 266 MB/s.  A per-client write
  ceiling (default ~14 MB/s) models this.

PVFS also implements the :class:`~repro.repository.base.Repository`
protocol so it can serve base-image chunks.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.flows import Fabric
from repro.netsim.topology import Host
from repro.simkernel.core import Environment, Event
from repro.simkernel.fluid import FluidShare

__all__ = ["PVFS"]


class PVFS:
    """A striped parallel file system over ``servers``.

    Parameters
    ----------
    client_write_bw:
        Per-client ceiling on qcow2-over-PVFS write throughput (bytes/s).
    stripe_width:
        Number of servers one I/O is spread across.
    """

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        servers: list[Host],
        chunk_size: int,
        client_write_bw: float = 14e6,
        stripe_width: int = 4,
    ):
        if not servers:
            raise ValueError("need at least one server")
        if client_write_bw <= 0:
            raise ValueError("client_write_bw must be positive")
        if stripe_width < 1:
            raise ValueError("stripe_width must be >= 1")
        self.env = env
        self.fabric = fabric
        self.servers = list(servers)
        self.chunk_size = int(chunk_size)
        self.stripe_width = min(int(stripe_width), len(servers))
        self.client_write_bw = float(client_write_bw)
        self._rr = 0
        self._write_limiters: dict[str, FluidShare] = {}
        #: Diagnostics.
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    # -- internals -----------------------------------------------------------
    def _pick_servers(self) -> list[Host]:
        n = len(self.servers)
        picked = [self.servers[(self._rr + i) % n] for i in range(self.stripe_width)]
        self._rr = (self._rr + self.stripe_width) % n
        return picked

    def _write_limiter(self, client: Host) -> FluidShare:
        lim = self._write_limiters.get(client.name)
        if lim is None:
            lim = FluidShare(
                self.env, self.client_write_bw, name=f"pvfs-wlim:{client.name}"
            )
            self._write_limiters[client.name] = lim
        return lim

    # -- guest I/O --------------------------------------------------------------
    def read(self, client: Host, nbytes: float, tag: str = "pvfs-io",
             cause: str = "workload") -> Event:
        """Stream ``nbytes`` from the server pool to ``client``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        self.bytes_read += nbytes
        picked = self._pick_servers()
        share = nbytes / len(picked)
        with self.fabric.batch():
            events = [self.fabric.transfer(s, client, share, tag=tag,
                                           cause=cause)
                      for s in picked]
        return self.env.all_of(events)

    def write(self, client: Host, nbytes: float, tag: str = "pvfs-io",
              cause: str = "workload") -> Event:
        """Write ``nbytes`` from ``client`` into the pool.

        Completion requires both the network transfer and the client-side
        qcow2/PVFS synchronization budget (whichever is slower governs).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        self.bytes_written += nbytes
        picked = self._pick_servers()
        share = nbytes / len(picked)
        with self.fabric.batch():
            events = [self.fabric.transfer(client, s, share, tag=tag,
                                           cause=cause)
                      for s in picked]
        events.append(self._write_limiter(client).transfer(nbytes))
        return self.env.all_of(events)

    # -- Repository protocol -------------------------------------------------
    def fetch(
        self,
        chunk_ids: np.ndarray,
        dest: Host,
        weight: float = 1.0,
        tag: str = "repo-fetch",
        cause: str = "repo.fetch",
    ) -> Event:
        chunk_ids = np.asarray(chunk_ids, dtype=np.intp)
        return self.read(dest, float(len(chunk_ids) * self.chunk_size),
                         tag=tag, cause=cause)

    def __repr__(self) -> str:
        return f"<PVFS {len(self.servers)} servers stripe_width={self.stripe_width}>"
