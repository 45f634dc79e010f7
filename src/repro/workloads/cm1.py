"""CM1 atmospheric model as a BSP stencil application (Section 5.5).

The paper runs CM1 on 64 VM instances: an 8x8 decomposition of the spatial
domain (200x200 points per subdomain), iterating compute -> halo exchange,
with every MPI process dumping ~200 MB to local storage per output
interval (~40 s of computation).

The BSP structure is the behaviour that matters: the halo exchange is a
global synchronization, so *one* slowed rank (the one being migrated, or
one doing remote I/O) drags the whole application — the effect behind
Figure 5(c)'s execution-time increase exceeding the cumulated migration
time.

Each rank is modeled as a :class:`CM1Workload` on its own VM; ranks share
a :class:`Barrier` and exchange border data with their grid neighbours as
fabric flows tagged ``app`` (subtracted from migration traffic exactly as
the paper does for Figure 5(b)).
"""

from __future__ import annotations

from typing import Generator

from repro.simkernel.core import Environment, Event
from repro.workloads.base import Workload

__all__ = ["Barrier", "CM1Workload"]


class Barrier:
    """A reusable all-ranks synchronization barrier."""

    def __init__(self, env: Environment, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.env = env
        self.n = n
        self._count = 0
        self._gate = Event(env)
        self.generations = 0

    def arrive(self) -> Event:
        """Returns the event that opens when all ``n`` ranks arrived."""
        self._count += 1
        gate = self._gate
        if self._count == self.n:
            self._count = 0
            self.generations += 1
            self._gate = Event(self.env)
            gate.succeed(self.generations)
        return gate


class CM1Workload(Workload):
    """One MPI rank of the CM1 hurricane simulation."""

    name = "CM1"

    def __init__(
        self,
        vm,
        rank: int,
        grid: tuple[int, int],
        peers: list,
        barrier: Barrier,
        fabric,
        n_steps: int = 120,
        step_compute: float = 4.0,
        halo_bytes: int = 4 * 2**20,
        dump_every: int = 10,
        dump_bytes: int = 200 * 2**20,
        file_offset: int = 1 * 2**30,
        dirty_rate: float = 40e6,
        seed: int = 0,
    ):
        super().__init__(vm, seed=seed)
        self.rank = int(rank)
        self.grid = grid
        self.peers = peers  # list of all rank VMs, indexable by rank
        self.barrier = barrier
        self.fabric = fabric
        self.n_steps = int(n_steps)
        self.step_compute = float(step_compute)
        self.halo_bytes = int(halo_bytes)
        self.dump_every = int(dump_every)
        self.dump_bytes = int(dump_bytes)
        self.file_offset = int(file_offset)
        self.dirty_rate = float(dirty_rate)
        self.steps_done = 0
        self.dumps_done = 0

    def _neighbours(self) -> list[int]:
        """Ranks of the 4-neighbourhood in the process grid."""
        nx, ny = self.grid
        x, y = self.rank % nx, self.rank // nx
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            px, py = x + dx, y + dy
            if 0 <= px < nx and 0 <= py < ny:
                out.append(py * nx + px)
        return out

    def _halo_exchange(self) -> Generator:
        """Send border data to every neighbour; completion = all sent.

        Receives are the neighbours' sends; the barrier provides the
        synchronization semantics, so each pair of borders is modeled as
        one flow per direction per step.
        """
        sends = []
        with self.fabric.batch():
            for nb in self._neighbours():
                peer_vm = self.peers[nb]
                sends.append(
                    self.fabric.transfer(
                        self.vm.host, peer_vm.host, float(self.halo_bytes),
                        tag="app", cause="workload"
                    )
                )
        if sends:
            yield self.env.all_of(sends)

    def run(self) -> Generator:
        self.vm.dirty_rate_base = self.dirty_rate
        dump_slot = 0
        for step in range(1, self.n_steps + 1):
            yield from self.vm.compute(self.step_compute)
            yield from self._halo_exchange()
            yield self.barrier.arrive()
            yield from self.vm.check_paused()
            if step % self.dump_every == 0:
                # Alternate between two dump regions so re-dumps overwrite.
                offset = self.file_offset + dump_slot * self.dump_bytes
                dump_slot = (dump_slot + 1) % 2
                yield from self.write(offset, self.dump_bytes)
                self.dumps_done += 1
            self.steps_done = step


def build_cm1_ensemble(
    env: Environment,
    vms: list,
    fabric,
    grid: tuple[int, int],
    **kwargs,
) -> list[CM1Workload]:
    """Wire one CM1 rank per VM over a shared barrier.

    ``len(vms)`` must equal ``grid[0] * grid[1]``.
    """
    nx, ny = grid
    if len(vms) != nx * ny:
        raise ValueError(f"need {nx * ny} VMs for a {nx}x{ny} grid, got {len(vms)}")
    barrier = Barrier(env, len(vms))
    return [
        CM1Workload(vm, rank=i, grid=grid, peers=vms, barrier=barrier,
                    fabric=fabric, **kwargs)
        for i, vm in enumerate(vms)
    ]
