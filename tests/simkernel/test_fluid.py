"""Tests for the weighted processor-sharing fluid resource.

Besides hand-worked cases and properties, the virtual-clock share is held
against :class:`PerJobShare`, a test-only oracle that integrates every
job's remaining bytes separately (O(n) per event).
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Environment, Event, FluidShare, RearmableTimer
from repro.simkernel.fluid import DONE_EPS, MIN_ETA


def run_transfer(env, share, nbytes, start, log, tag, weight=1.0):
    def proc():
        yield env.timeout(start)
        yield share.transfer(nbytes, weight=weight)
        log.append((tag, env.now))

    env.process(proc())


def test_single_job_rate_is_full_capacity():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 500.0, 0.0, log, "a")
    env.run()
    assert log == [("a", 5.0)]


def test_two_equal_jobs_share_equally():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 100.0, 0.0, log, "a")
    run_transfer(env, share, 100.0, 0.0, log, "b")
    env.run()
    # Each runs at 50 B/s for 2 s.
    assert log == [("a", 2.0), ("b", 2.0)]


def test_staggered_arrival_integration():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 100.0, 0.0, log, "a")
    run_transfer(env, share, 100.0, 0.5, log, "b")
    env.run()
    # a: 50 B alone in [0,0.5], then shares; both have symmetric finish math:
    # a finishes at t where 50 + 50*(t-0.5) = 100 -> t = 1.5
    # b then runs alone: 50 B at 0.5..1.5 done, remaining 50 at 100 B/s -> 2.0
    times = dict(log)
    assert math.isclose(times["a"], 1.5)
    assert math.isclose(times["b"], 2.0)


def test_weighted_sharing():
    env = Environment()
    share = FluidShare(env, capacity=90.0)
    log = []
    run_transfer(env, share, 120.0, 0.0, log, "heavy", weight=2.0)
    run_transfer(env, share, 120.0, 0.0, log, "light", weight=1.0)
    env.run()
    times = dict(log)
    # heavy gets 60 B/s -> finishes at 2.0; light then speeds up:
    # light has 120 - 30*2 = 60 left at 90 B/s -> 2.0 + 60/90
    assert math.isclose(times["heavy"], 2.0)
    assert math.isclose(times["light"], 2.0 + 60.0 / 90.0)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    share = FluidShare(env, capacity=10.0)
    ev = share.transfer(0)
    assert ev.triggered and ev.ok


def test_invalid_args():
    env = Environment()
    with pytest.raises(ValueError):
        FluidShare(env, capacity=0)
    share = FluidShare(env, capacity=1)
    with pytest.raises(ValueError):
        share.transfer(-5)
    with pytest.raises(ValueError):
        share.transfer(5, weight=0)


def test_set_capacity_midstream():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 200.0, 0.0, log, "a")

    def tweak():
        yield env.timeout(1.0)
        share.set_capacity(50.0)  # 100 B left, now at 50 B/s

    env.process(tweak())
    env.run()
    assert log == [("a", 3.0)]


def test_total_bytes_accounting():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 70.0, 0.0, log, "a")
    run_transfer(env, share, 30.0, 0.0, log, "b")
    env.run()
    assert math.isclose(share.total_bytes, 100.0)


def test_utilization_flag():
    env = Environment()
    share = FluidShare(env, capacity=10.0)
    assert share.utilization == 0.0
    share.transfer(100.0)
    assert share.utilization == 1.0


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=8),
    starts=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=8),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
def test_property_work_conservation(sizes, starts, capacity):
    """Total completion time is bounded below by sum(bytes)/capacity after
    last arrival, and every job eventually completes exactly once."""
    n = min(len(sizes), len(starts))
    sizes, starts = sizes[:n], starts[:n]
    env = Environment()
    share = FluidShare(env, capacity=capacity)
    log = []
    for i, (size, start) in enumerate(zip(sizes, starts)):
        run_transfer(env, share, size, start, log, i)
    env.run()
    assert sorted(tag for tag, _ in log) == list(range(n))
    makespan = max(t for _, t in log)
    # Work conservation: the server can't finish before all bytes fit.
    lower = sum(sizes) / capacity
    assert makespan >= lower - 1e-6
    # And it never idles while work is pending, so makespan <= last_arrival + total/capacity.
    assert makespan <= max(starts) + lower + 1e-6
    assert math.isclose(share.total_bytes, sum(sizes), rel_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    capacity=st.floats(min_value=1.0, max_value=1000.0),
    size=st.floats(min_value=1.0, max_value=1e4),
)
def test_property_equal_jobs_finish_together(n, capacity, size):
    """n identical simultaneous jobs all finish at n*size/capacity."""
    env = Environment()
    share = FluidShare(env, capacity=capacity)
    log = []
    for i in range(n):
        run_transfer(env, share, size, 0.0, log, i)
    env.run()
    expected = n * size / capacity
    assert all(math.isclose(t, expected, rel_tol=1e-9) for _, t in log)


# ------------------------------------------------------------ per-job oracle
class PerJobShare:
    """Reference processor-sharing integrator with per-job counters.

    On every change of the job set each job's remaining bytes are
    integrated as ``remaining -= capacity * dt * w / sum(w)``, jobs at or
    below ``DONE_EPS`` complete in admission order, and the wakeup is
    re-armed at ``min(remaining / (capacity * w / sum(w)))``.
    """

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = float(capacity)
        self.jobs = []  # [remaining, weight, nbytes, done, started_at]
        self.last = env.now
        self.timer = RearmableTimer(env, self._wake)
        self.total_bytes = 0.0

    def transfer(self, nbytes, weight=1.0):
        done = Event(self.env)
        if nbytes == 0:
            return done.succeed(0.0)
        self._advance()
        self.jobs.append([float(nbytes), float(weight), float(nbytes), done,
                          self.env.now])
        self._reschedule()
        return done

    def set_capacity(self, capacity):
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    def _advance(self):
        now = self.env.now
        dt = now - self.last
        self.last = now
        if dt <= 0 or not self.jobs:
            return
        total_w = sum(job[1] for job in self.jobs)
        for job in self.jobs:
            job[0] -= self.capacity * dt * job[1] / total_w
        finished = [job for job in self.jobs if job[0] <= DONE_EPS]
        self.jobs = [job for job in self.jobs if job[0] > DONE_EPS]
        for _, _, nbytes, done, started_at in finished:
            self.total_bytes += nbytes
            done.succeed(now - started_at)

    def _reschedule(self):
        if not self.jobs:
            self.timer.cancel()
            return
        total_w = sum(job[1] for job in self.jobs)
        eta = min(job[0] / (self.capacity * job[1] / total_w)
                  for job in self.jobs)
        self.timer.arm(max(eta, MIN_ETA))

    def _wake(self):
        self._advance()
        self._reschedule()


def play(make_share, capacity, jobs, capacity_changes):
    """Run one arrival script; return (completion time per job, completion
    order, share.total_bytes)."""
    env = Environment()
    share = make_share(env, capacity)
    times = {}
    order = []

    def arrive(tag, start, nbytes, weight):
        yield env.timeout(start)
        yield share.transfer(nbytes, weight=weight)
        times[tag] = env.now
        order.append(tag)

    def retune(at, cap):
        yield env.timeout(at)
        share.set_capacity(cap)

    for tag, (start, nbytes, weight) in enumerate(jobs):
        env.process(arrive(tag, start, nbytes, weight))
    for at, cap in capacity_changes:
        env.process(retune(at, cap))
    env.run()
    return times, order, share.total_bytes


# Integer byte counts keep total_bytes exact in any summation order; the
# sampled sizes and start instants make equal jobs that finish together.
_sizes = st.one_of(st.sampled_from([0, 1000, 4096, 65536]),
                   st.integers(min_value=1, max_value=10**6))
_starts = st.one_of(st.sampled_from([0.0, 0.5, 2.0]),
                    st.floats(min_value=0.0, max_value=50.0))
_weights = st.one_of(st.integers(min_value=1, max_value=4).map(float),
                     st.floats(min_value=0.1, max_value=10.0))
_capacities = st.floats(min_value=1.0, max_value=1e5)


@settings(max_examples=150, deadline=None)
@given(
    capacity=_capacities,
    jobs=st.lists(st.tuples(_starts, _sizes, _weights), min_size=1, max_size=10),
    capacity_changes=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=60.0), _capacities),
        max_size=3,
    ),
)
def test_virtual_clock_matches_per_job_oracle(capacity, jobs, capacity_changes):
    """Same completion times (relative 1e-9), same completion order wherever
    the times are distinguishable, same byte total."""
    got_t, got_order, got_total = play(FluidShare, capacity, jobs,
                                       capacity_changes)
    ref_t, ref_order, ref_total = play(PerJobShare, capacity, jobs,
                                       capacity_changes)
    assert sorted(got_t) == sorted(ref_t) == list(range(len(jobs)))
    for tag, t in ref_t.items():
        assert math.isclose(got_t[tag], t, rel_tol=1e-9), (tag, got_t[tag], t)
    got_pos = {tag: i for i, tag in enumerate(got_order)}
    ref_pos = {tag: i for i, tag in enumerate(ref_order)}
    for a in ref_t:
        for b in ref_t:
            if ref_t[a] < ref_t[b] and not math.isclose(ref_t[a], ref_t[b],
                                                        rel_tol=1e-9):
                assert got_pos[a] < got_pos[b] and ref_pos[a] < ref_pos[b]
    assert got_total == ref_total == float(sum(size for _, size, _ in jobs))


def test_extreme_weight_ratio_completes_both_jobs():
    """Weights 1e20 and 1.0: once the heavy job leaves, the light job's
    weight must still be counted (a running 1e20 + 1.0 - 1e20 is 0.0)."""
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    heavy = share.transfer(100.0, weight=1e20)
    light = share.transfer(100.0, weight=1.0)
    env.run(until=10.0)
    assert heavy.processed and light.processed
    assert math.isclose(heavy.value, 1.0, rel_tol=1e-9)
    assert math.isclose(light.value, 2.0, rel_tol=1e-9)
    assert share.total_bytes == 200.0


def test_virtual_clock_restarts_each_busy_period():
    """A tiny-weight job drives the virtual clock to 1e18 in one busy
    period; the next period's tags must not inherit that magnitude
    (1e18 + 1000 rounds to 1e18 + 1024)."""
    env = Environment()
    share = FluidShare(env, capacity=1e6)
    first = share.transfer(1e6, weight=1e-12)
    env.run()
    assert math.isclose(first.value, 1.0, rel_tol=1e-12)
    second = share.transfer(1000.0)
    env.run()
    assert math.isclose(second.value, 1e-3, rel_tol=1e-9)


def test_two_thousand_concurrent_jobs():
    """2,000 jobs admitted together: all complete at the analytic
    processor-sharing times, the byte total is exact, and the run is fast."""
    n = 2000
    capacity = 1e6
    sizes = [1000.0 + (i * 7919) % 5000 for i in range(n)]
    env = Environment()
    share = FluidShare(env, capacity=capacity)
    t0 = time.perf_counter()
    events = [share.transfer(size) for size in sizes]
    env.run()
    wall = time.perf_counter() - t0
    assert all(ev.processed and ev.ok for ev in events)
    assert share.total_bytes == sum(sizes)
    # Equal weights, common start: the k-th smallest job finishes once
    # every job still running has received its size.
    expected = {}
    t, served, left = 0.0, 0.0, n
    for size in sorted(set(sizes)):
        t += left * (size - served) / capacity
        served = size
        expected[size] = t
        left -= sizes.count(size)
    for size, ev in zip(sizes, events):
        assert math.isclose(ev.value, expected[size], rel_tol=1e-9)
    assert wall < 5.0, f"2,000 concurrent jobs took {wall:.2f} s"
