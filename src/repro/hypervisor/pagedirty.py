"""Page-granular memory dirtying and page-level pre-copy.

The scalar model (``vm.dirty_rate`` bytes/second) treats every dirtied
byte as *new* work for the next round.  Real guests touch pages with a
skewed popularity distribution, so the dirty **set** saturates at the hot
working set: re-touching an already-dirty page adds nothing to the next
round.  That saturation is why pre-copy converges on workloads whose raw
write rate exceeds the link — and why it can't on uniform ones.

:class:`PageDirtyModel` tracks a dirty bitmap over the working set with
Zipf-like page popularity; dirtying over an interval is applied
analytically (per-page Bernoulli with rate ``λ_i·dt``), so advancing the
model costs O(pages) once per round, stays deterministic under a seed,
and needs no per-write events.

:class:`PageLevelPrecopyMemory` is a drop-in memory strategy that drives
rounds off the bitmap instead of the scalar rate.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.hypervisor.memory import MemoryStats

__all__ = ["PageDirtyModel", "PageLevelPrecopyMemory"]


class PageDirtyModel:
    """Dirty-page bitmap with skewed page popularity.

    Parameters
    ----------
    working_set:
        Bytes of touched memory (the bitmap covers exactly this).
    touch_rate:
        Guest page-touch pressure in bytes/second (raw write rate; the
        *unique* dirtying rate emerges from the popularity skew).
    page_size:
        Typically 4 KiB.
    zipf_s:
        Popularity exponent: 0 = uniform, larger = hotter hot set.
    """

    def __init__(
        self,
        working_set: float,
        touch_rate: float,
        page_size: int = 4096,
        zipf_s: float = 1.0,
        seed: int = 0,
    ):
        if working_set <= 0 or touch_rate < 0 or page_size <= 0:
            raise ValueError("working_set/page_size must be > 0, touch_rate >= 0")
        if zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        self.page_size = int(page_size)
        self.n_pages = max(int(working_set // page_size), 1)
        self.touch_rate = float(touch_rate)
        self.zipf_s = float(zipf_s)
        self.rng = np.random.default_rng(seed)
        # Popularity: p_i ~ 1/rank^s, shuffled so hot pages are scattered.
        ranks = np.arange(1, self.n_pages + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        self.rng.shuffle(weights)
        self._popularity = weights / weights.sum()
        self.dirty = np.zeros(self.n_pages, dtype=bool)
        #: Diagnostics: total page-touch events applied (expected value).
        self.touches_applied = 0.0

    @property
    def working_set(self) -> int:
        return self.n_pages * self.page_size

    @property
    def dirty_pages(self) -> int:
        return int(self.dirty.sum())

    @property
    def dirty_bytes(self) -> int:
        return self.dirty_pages * self.page_size

    def advance(self, dt: float) -> None:
        """Apply ``dt`` seconds of dirtying.

        Page ``i`` receives touches at rate ``λ_i = touch_rate/page_size *
        p_i``; it is dirty afterwards with probability ``1 - exp(-λ_i dt)``
        (independent Bernoulli per page — the analytic form of Poisson
        sampling, cheap and deterministic under the seed).
        """
        if dt < 0:
            raise ValueError("dt must be >= 0")
        if dt == 0 or self.touch_rate == 0:
            return
        touches = self.touch_rate / self.page_size * dt
        self.touches_applied += touches
        p_dirty = -np.expm1(-touches * self._popularity)
        self.dirty |= self.rng.random(self.n_pages) < p_dirty

    def take_dirty(self) -> int:
        """Atomically read-and-clear the bitmap; returns the page count
        (QEMU's dirty-log sync at the start of a round)."""
        count = self.dirty_pages
        self.dirty[:] = False
        return count

    def unique_dirty_rate(self, dt: float = 1.0) -> float:
        """Expected *unique* bytes dirtied over ``dt`` from a clean bitmap
        (closed form; useful to compare against the scalar model)."""
        touches = self.touch_rate / self.page_size * dt
        expected = -np.expm1(-touches * self._popularity)
        return float(expected.sum()) * self.page_size / dt


class PageLevelPrecopyMemory:
    """Iterative pre-copy driven by a :class:`PageDirtyModel`.

    Same interface as :class:`~repro.hypervisor.memory.PrecopyMemory`; the
    dirty volume per round comes from the bitmap, so hot-set saturation is
    captured: a guest re-writing 300 MB/s into a 64 MB hot set converges
    in a handful of rounds where the scalar model never would.
    """

    def __init__(
        self,
        model: PageDirtyModel,
        downtime_target: float = 0.05,
        max_rounds: int = 30,
        poll_interval: float = 0.25,
        delta_ratio: float = 1.0,
    ):
        if downtime_target <= 0 or max_rounds < 1 or delta_ratio < 1.0:
            raise ValueError("invalid pre-copy parameters")
        self.model = model
        self.downtime_target = float(downtime_target)
        self.max_rounds = int(max_rounds)
        self.poll_interval = float(poll_interval)
        self.delta_ratio = float(delta_ratio)

    def pre_control(
        self, env, fabric, vm, src, dst, storage_mgr, stats: MemoryStats
    ) -> Generator:
        model = self.model
        rate = min(src.nic_out, dst.nic_in)
        # Round 1: the whole working set, dirtying as it streams.
        remaining = float(model.working_set)
        while True:
            ready = storage_mgr.ready_for_control()
            converged = remaining <= self.downtime_target * rate
            if converged and ready:
                break
            if converged:
                yield env.timeout(self.poll_interval)
                model.advance(self.poll_interval)
                remaining = float(model.dirty_bytes)
                continue
            if stats.rounds >= self.max_rounds and ready:
                break
            stats.rounds += 1
            wire = remaining if stats.rounds == 1 else remaining / self.delta_ratio
            t0 = env.now
            yield fabric.transfer(src, dst, wire, tag="memory", cause="memory")
            dur = env.now - t0
            stats.bytes_sent += wire
            stats.round_durations.append(dur)
            if dur > 0:
                rate = remaining / dur
            model.advance(dur)
            remaining = float(model.take_dirty()) * model.page_size
            pb = env.probe
            if pb.enabled:
                # Bitmap-model residual and the closed-form unique-dirty
                # rate (reads model state only; the rng stays untouched).
                pb.gauge(f"mem.residual:{vm.name}", env.now, remaining,
                         unit="B")
                pb.gauge(f"mem.dirty_rate:{vm.name}", env.now,
                         model.unique_dirty_rate(), unit="B/s")
                pb.gauge(f"mem.rounds:{vm.name}", env.now, stats.rounds,
                         unit="rounds")
        # The residual (still-dirty pages) moves during downtime.
        return float(model.dirty_bytes) if not remaining else remaining

    def post_control(self, env, fabric, vm, src, dst, stats) -> Generator:
        return
        yield  # pragma: no cover
