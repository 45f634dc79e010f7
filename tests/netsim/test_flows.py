"""Tests for the Fabric flow scheduler and topology."""

import dataclasses
import math
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Fabric, NetFlow, Topology
from repro.netsim.flowtable import FlowTable
from repro.simkernel import Environment

from tests.differential.test_differential import exact_json


def make_fabric(n_hosts=4, nic=100.0, backplane=None, latency=0.0):
    env = Environment()
    topo = Topology(backplane=backplane)
    for i in range(n_hosts):
        topo.add_host(f"h{i}", nic_out=nic)
    fabric = Fabric(env, topo, latency=latency)
    return env, topo, fabric


class TestTopology:
    def test_duplicate_host_rejected(self):
        topo = Topology()
        topo.add_host("a", 10.0)
        with pytest.raises(ValueError):
            topo.add_host("a", 10.0)

    def test_lookup_and_contains(self):
        topo = Topology()
        h = topo.add_host("a", 10.0)
        assert topo["a"] is h
        assert "a" in topo and "b" not in topo
        assert len(topo) == 1

    def test_nic_in_defaults_to_nic_out(self):
        topo = Topology()
        h = topo.add_host("a", 10.0)
        assert h.nic_in == 10.0

    def test_invalid_nic_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_host("a", 0.0)


class TestFabricTransfer:
    def test_single_transfer_at_nic_speed(self):
        env, topo, fabric = make_fabric()
        done = []

        def proc():
            yield fabric.transfer(topo["h0"], topo["h1"], 500.0, tag="x")
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [5.0]
        assert fabric.meter.bytes("x") == pytest.approx(500.0)

    def test_zero_bytes_completes_instantly(self):
        env, topo, fabric = make_fabric()
        ev = fabric.transfer(topo["h0"], topo["h1"], 0.0)
        assert ev.triggered and ev.ok

    def test_loopback_is_free(self):
        env, topo, fabric = make_fabric()
        ev = fabric.transfer(topo["h0"], topo["h0"], 1e9)
        assert ev.triggered
        assert fabric.meter.total() == 0.0

    def test_invalid_args(self):
        env, topo, fabric = make_fabric()
        with pytest.raises(ValueError):
            fabric.transfer(topo["h0"], topo["h1"], -1.0)
        with pytest.raises(ValueError):
            fabric.transfer(topo["h0"], topo["h1"], 1.0, weight=0.0)
        with pytest.raises(ValueError):
            Fabric(env, topo, latency=-1.0)

    def test_shared_egress_nic(self):
        """Two flows out of the same host share its egress NIC."""
        env, topo, fabric = make_fabric()
        times = {}

        def proc(dst, tag):
            yield fabric.transfer(topo["h0"], topo[dst], 100.0, tag=tag)
            times[tag] = env.now

        env.process(proc("h1", "a"))
        env.process(proc("h2", "b"))
        env.run()
        assert times["a"] == pytest.approx(2.0)
        assert times["b"] == pytest.approx(2.0)

    def test_disjoint_flows_full_speed(self):
        env, topo, fabric = make_fabric()
        times = {}

        def proc(src, dst, tag):
            yield fabric.transfer(topo[src], topo[dst], 100.0, tag=tag)
            times[tag] = env.now

        env.process(proc("h0", "h1", "a"))
        env.process(proc("h2", "h3", "b"))
        env.run()
        assert times["a"] == pytest.approx(1.0)
        assert times["b"] == pytest.approx(1.0)

    def test_backplane_throttles_disjoint_flows(self):
        env, topo, fabric = make_fabric(backplane=100.0)
        times = {}

        def proc(src, dst, tag):
            yield fabric.transfer(topo[src], topo[dst], 100.0, tag=tag)
            times[tag] = env.now

        env.process(proc("h0", "h1", "a"))
        env.process(proc("h2", "h3", "b"))
        env.run()
        # 50 B/s each under the 100 B/s backplane.
        assert times["a"] == pytest.approx(2.0)
        assert times["b"] == pytest.approx(2.0)

    def test_departure_speeds_up_survivor(self):
        env, topo, fabric = make_fabric()
        times = {}

        def proc(nbytes, tag):
            yield fabric.transfer(topo["h0"], topo["h1"], nbytes, tag=tag)
            times[tag] = env.now

        env.process(proc(50.0, "short"))
        env.process(proc(150.0, "long"))
        env.run()
        # share 50/50 until short finishes at t=1 (50 B at 50 B/s);
        # long then has 100 B left at 100 B/s -> t=2.
        assert times["short"] == pytest.approx(1.0)
        assert times["long"] == pytest.approx(2.0)

    def test_weight_priority(self):
        env, topo, fabric = make_fabric()
        times = {}

        def proc(tag, weight):
            yield fabric.transfer(topo["h0"], topo["h1"], 100.0, tag=tag, weight=weight)
            times[tag] = env.now

        env.process(proc("prio", 4.0))
        env.process(proc("bulk", 1.0))
        env.run()
        # prio at 80 B/s finishes t=1.25; bulk: 25 B by then, 75 left at 100 -> 2.0
        assert times["prio"] == pytest.approx(1.25)
        assert times["bulk"] == pytest.approx(2.0)

    def test_meter_accounts_partial_progress(self):
        env, topo, fabric = make_fabric()
        fabric.transfer(topo["h0"], topo["h1"], 1000.0, tag="x")
        env.run(until=2.0)
        # Force integration by starting another flow.
        fabric.transfer(topo["h2"], topo["h3"], 1.0, tag="y")
        assert fabric.meter.bytes("x") == pytest.approx(200.0)

    def test_flow_rates_snapshot(self):
        env, topo, fabric = make_fabric()
        fabric.transfer(topo["h0"], topo["h1"], 1000.0, tag="x")
        rates = fabric.flow_rates()
        assert rates == {"h0->h1/x": pytest.approx(100.0)}

    def test_exact_byte_accounting_after_completion(self):
        env, topo, fabric = make_fabric()
        sizes = [123.0, 456.7, 89.0]
        for s in sizes:
            fabric.transfer(topo["h0"], topo["h1"], s, tag="x")
        env.run()
        assert fabric.meter.bytes("x") == pytest.approx(sum(sizes))


class TestMessages:
    def test_message_latency_and_wire_time(self):
        env, topo, fabric = make_fabric(latency=0.5)
        done = []

        def proc():
            yield fabric.message(topo["h0"], topo["h1"], nbytes=100.0, tag="ctl")
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [pytest.approx(0.5 + 1.0)]
        assert fabric.meter.bytes("ctl") == pytest.approx(100.0)

    def test_rpc_round_trip(self):
        env, topo, fabric = make_fabric(latency=0.25)
        done = []

        def proc():
            yield from fabric.rpc(topo["h0"], topo["h1"], nbytes=0.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [pytest.approx(0.5)]

    def test_loopback_message_free(self):
        env, topo, fabric = make_fabric(latency=0.5)
        ev = fabric.message(topo["h0"], topo["h0"])
        assert ev.triggered


class TestManyFlows:
    def test_thirty_concurrent_pairs_under_backplane(self):
        """30 disjoint pairs on a backplane of 10x NIC: each gets 1/3 NIC."""
        env = Environment()
        topo = Topology(backplane=1000.0)
        for i in range(60):
            topo.add_host(f"h{i}", nic_out=100.0)
        fabric = Fabric(env, topo)
        times = []

        def proc(i):
            yield fabric.transfer(topo[f"h{i}"], topo[f"h{i + 30}"], 100.0)
            times.append(env.now)

        for i in range(30):
            env.process(proc(i))
        env.run()
        # 1000/30 = 33.3 B/s each -> 3 s
        assert all(math.isclose(t, 3.0, rel_tol=1e-9) for t in times)


def _fan_out_run(batched: bool):
    """Three standing flows, then a same-instant fan-out of eight more at
    t=1.5 (with or without a batch).  Returns completion times and the
    meter matrix, serialized at full precision."""
    env = Environment()
    topo = Topology(backplane=700.0)
    for i in range(6):
        topo.add_host(f"h{i}", nic_out=100.0 + 7.0 * i)
    fabric = Fabric(env, topo, latency=0.0)
    done: dict[str, float] = {}

    def watch(label, ev):
        ev.add_callback(lambda _ev: done.setdefault(label, env.now))

    for i in range(3):
        watch(f"standing{i}", fabric.transfer(
            topo[f"h{i}"], topo[f"h{i + 3}"], 333.3 * (i + 1), tag="push",
            cause="push", weight=1.0 + i / 3))

    def fan_out():
        yield env.timeout(1.5)
        with fabric.batch() if batched else nullcontext():
            for j in range(8):
                watch(f"stripe{j}", fabric.transfer(
                    topo[f"h{j % 3 + 3}"], topo[f"h{j % 3}"],
                    97.1 * (j + 1), tag=("repo-fetch", "app")[j % 2],
                    cause="prefetch", weight=0.7 + j / 7))

    env.process(fan_out())
    env.run()
    return exact_json({"done": dict(sorted(done.items())),
                       "meter": {f"{t}|{c}": v for (t, c), v
                                 in sorted(fabric.meter.by_pair().items())},
                       "now": env.now})


class TestBatch:
    def test_batched_fan_out_is_bit_identical_to_unbatched(self):
        batched, unbatched = _fan_out_run(True), _fan_out_run(False)
        assert batched == unbatched

    def test_nested_batches_flush_once(self, monkeypatch):
        env, topo, fabric = make_fabric()
        calls = []
        recompute = fabric._recompute
        monkeypatch.setattr(fabric, "_recompute",
                            lambda: calls.append(env.now) or recompute())
        with fabric.batch():
            fabric.transfer(topo["h0"], topo["h1"], 100.0, tag="x")
            with fabric.batch():
                fabric.transfer(topo["h0"], topo["h2"], 100.0, tag="x")
            assert calls == []
            fabric.transfer(topo["h3"], topo["h1"], 100.0, tag="x")
            assert calls == []
        assert calls == [0.0]
        assert fabric.flow_rates() == {"h0->h1/x": 50.0, "h0->h2/x": 50.0,
                                       "h3->h1/x": 50.0}

    def test_exception_inside_batch_still_flushes(self):
        env, topo, fabric = make_fabric()
        with pytest.raises(KeyError):
            with fabric.batch():
                fabric.transfer(topo["h0"], topo["h1"], 100.0, tag="x")
                raise KeyError("caller failed mid fan-out")
        assert fabric.flow_rates() == {"h0->h1/x": 100.0}
        assert fabric._timer.armed
        env.run()
        assert env.now == 1.0
        assert fabric.meter.bytes("x") == 100.0

    def test_empty_batch_schedules_nothing(self, monkeypatch):
        env, topo, fabric = make_fabric()
        fabric.transfer(topo["h0"], topo["h1"], 100.0, tag="x")
        env.run(until=0.25)
        calls = []
        monkeypatch.setattr(fabric, "_recompute", lambda: calls.append(1))
        pending, scheduled = fabric._timer._pending, env._seq
        with fabric.batch():
            pass
        assert calls == []
        assert fabric._timer._pending is pending
        assert env._seq == scheduled

    def test_clock_moving_inside_a_batch_raises(self):
        env, topo, fabric = make_fabric()

        def careless():
            with fabric.batch():
                fabric.transfer(topo["h0"], topo["h1"], 100.0, tag="x")
                yield env.timeout(1.0)
                fabric.transfer(topo["h0"], topo["h2"], 100.0, tag="x")

        env.process(careless())
        with pytest.raises(RuntimeError, match="inside Fabric.batch"):
            env.run()


@contextmanager
def _unbatched(self):
    """``Fabric.batch`` as it behaved before batching: no deferral."""
    yield self


@pytest.mark.parametrize("cell", ["fig4-precopy", "cm1"])
def test_scenario_cells_match_with_and_without_batching(cell, monkeypatch):
    from repro.experiments.scenarios import (
        run_cm1_successive,
        run_concurrent_migrations,
    )

    def run():
        if cell == "cm1":
            outcome = run_cm1_successive(
                "our-approach", 1, grid=(2, 2), first_at=20.0,
                workload_kwargs=dict(n_steps=30))
        else:
            outcome = run_concurrent_migrations(
                "precopy", 2, n_sources=4, warmup=10.0,
                workload_kwargs=dict(iterations=20))
        return exact_json(dataclasses.asdict(outcome))

    batched = run()
    monkeypatch.setattr(Fabric, "batch", _unbatched)
    assert run() == batched


def _regroup(flows):
    """The from-scratch coalescing the flow table replaces, verbatim."""
    group_key: dict = {}
    g_srcs, g_dsts, g_weights, members = [], [], [], []
    for fl in flows:
        key = (fl.src.index, fl.dst.index, fl.tag)
        gi = group_key.get(key)
        if gi is None:
            group_key[key] = len(g_srcs)
            g_srcs.append(fl.src.index)
            g_dsts.append(fl.dst.index)
            g_weights.append(fl.weight)
            members.append([fl])
        else:
            g_weights[gi] += fl.weight
            members[gi].append(fl)
    return (np.array(g_weights, dtype=np.float64),
            np.array(g_srcs, dtype=np.intp), np.array(g_dsts, dtype=np.intp),
            members)


# Two hosts and two tags: eight group keys, so groups often hold several
# members and lose their oldest one while others stay.
_EDIT = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 1), st.integers(0, 1),
              st.sampled_from(["push", "app"]),
              st.sampled_from([0.1, 0.3, 1.0, 1 / 3, 2.5])),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
)


@settings(max_examples=200, deadline=None)
@given(script=st.lists(_EDIT, max_size=60))
def test_flow_table_matches_from_scratch_regroup(script):
    env = Environment()
    topo = Topology()
    hosts = [topo.add_host(f"h{i}", nic_out=100.0) for i in range(2)]
    table, model = FlowTable(), []
    for step, edit in enumerate(script):
        if edit[0] == "add":
            _, s, d, tag, weight = edit
            fl = NetFlow(env, hosts[s], hosts[d], 10.0, tag, weight)
            table.add(fl)
            model.append(fl)
        elif model:
            fl = model.pop(edit[1] % len(model))
            table.remove(fl)
        if step % 3 and step != len(script) - 1:
            continue  # let edits pile up between folds, as in a batch
        assert list(table) == model
        weights, srcs, dsts, members = _regroup(model)
        t_weights, t_srcs, t_dsts = table.solver_inputs()
        assert t_weights.tobytes() == weights.tobytes()
        assert t_srcs.tobytes() == srcs.tobytes()
        assert t_dsts.tobytes() == dsts.tobytes()
        # A distinct rate per group position: a flow mapped to the wrong
        # group, or groups in the wrong order, gets the wrong rate.
        rates = np.arange(1.0, len(members) + 1) / 7
        table.assign_rates(rates)
        for gi, group in enumerate(members):
            for fl in group:
                expected = (float(rates[gi]) if len(group) == 1 else
                            float(rates[gi]) * (fl.weight / weights[gi]))
                assert fl.rate == expected


class TestScaleEdges:
    def test_zero_capacity_partition_retries_every_second(self):
        """Every live flow throttled to zero: the fabric re-arms at 1 s,
        moves nothing, and resumes exactly after the restore."""
        env, topo, fabric = make_fabric(nic=1024.0)
        for src in ("h0", "h2"):
            fabric.transfer(topo[src], topo["h1"], 4096.0, tag="push",
                            cause="push")
        env.run(until=2.0)
        topo.degrade_host("h1", 0.0)
        fabric.sync()
        moved = fabric.meter.total()
        assert moved == 2 * 2 * 512.0
        assert set(fabric.flow_rates().values()) == {0.0}
        assert fabric._timer._pending.triggered_at == 3.0
        for k in (1, 2, 3):
            env.run(until=2.5 + k)
            # The wakeup at 2 + k found nothing moving and re-armed.
            assert fabric._timer._pending.triggered_at == 3.0 + k
        fabric.sync()
        assert fabric.meter.total() == moved
        topo.restore_host("h1")
        fabric.sync()
        assert set(fabric.flow_rates().values()) == {512.0}
        env.run()
        assert fabric.active_flows == 0
        assert fabric.meter.by_pair() == {("push", "push"): 2 * 4096.0}
        # 3,072 bytes left per flow at 512 B/s after the 5.5 s restore.
        assert env.now == 5.5 + 6.0

    def test_mass_completion_of_two_thousand_batched_flows(self):
        """2,000 flows admitted in one batch finish in the same instant,
        with every byte accounted, inside a wall-time budget."""
        n = 2000
        env, topo, fabric = make_fabric(nic=n * 1024.0)
        started = time.perf_counter()
        with fabric.batch():
            done = [fabric.transfer(topo["h0"], topo["h1"], 4096.0,
                                    tag=f"t{i}", cause="push")
                    for i in range(n)]
        env.run()
        wall = time.perf_counter() - started
        assert all(ev.triggered and ev.value == 4.0 for ev in done)
        assert env.now == 4.0
        assert fabric.active_flows == 0
        assert fabric.meter.total() == n * 4096.0
        assert set(fabric.meter.by_tag().values()) == {4096.0}
        assert wall < 5.0, f"2,000-flow batch took {wall:.2f} s"
