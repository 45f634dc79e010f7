"""Tests for the striped repository (BlobSeer model)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Fabric, Topology
from repro.repository.blobseer import RepositoryUnavailable, StripedRepository
from repro.simkernel import Environment


def make_repo(n_servers=4, n_clients=2, nic=100.0, replication=1, chunk=100):
    env = Environment()
    topo = Topology()
    servers = [topo.add_host(f"s{i}", nic_out=nic) for i in range(n_servers)]
    clients = [topo.add_host(f"c{i}", nic_out=nic) for i in range(n_clients)]
    fabric = Fabric(env, topo, latency=0.0)
    repo = StripedRepository(env, fabric, servers, chunk_size=chunk,
                             replication=replication)
    return env, fabric, repo, servers, clients


def test_validation():
    env, fabric, repo, servers, clients = make_repo()
    with pytest.raises(ValueError):
        StripedRepository(env, fabric, [], chunk_size=100)
    with pytest.raises(ValueError):
        StripedRepository(env, fabric, servers, chunk_size=100, replication=9)


def test_replica_placement():
    env, fabric, repo, servers, clients = make_repo(n_servers=4, replication=2)
    assert repo.replicas_of(0) == [0, 1]
    assert repo.replicas_of(3) == [3, 0]


def test_empty_fetch_instant():
    env, fabric, repo, servers, clients = make_repo()
    ev = repo.fetch(np.array([], dtype=np.intp), clients[0])
    assert ev.triggered


def _plan_per_chunk(repo, chunk_ids):
    """The per-chunk replica choice ``_plan_fetch`` vectorizes, verbatim."""
    per_server = {}
    for chunk in chunk_ids:
        replicas = [s for s in repo.replicas_of(int(chunk))
                    if repo._server_alive(s)]
        if not replicas:
            raise RepositoryUnavailable(
                f"all {repo.replication} replica(s) of chunk {int(chunk)} "
                "are on failed servers")
        best = min(replicas, key=lambda s: repo._load[s])
        per_server[best] = per_server.get(best, 0) + 1
    return per_server


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_servers=st.integers(1, 6),
       chunks=st.lists(st.integers(0, 40), min_size=1, max_size=30))
def test_fetch_plan_matches_per_chunk_choice(data, n_servers, chunks):
    replication = data.draw(st.integers(1, n_servers))
    env, fabric, repo, servers, clients = make_repo(
        n_servers=n_servers, replication=replication)
    # Few distinct load levels, so ties between replicas are common.
    repo._load[:] = data.draw(st.lists(st.sampled_from([0.0, 100.0, 250.0]),
                                       min_size=n_servers,
                                       max_size=n_servers))
    for idx in data.draw(st.lists(st.integers(0, n_servers - 1),
                                  max_size=n_servers)):
        repo.fail_server(idx)
    chunk_ids = np.array(chunks, dtype=np.intp)
    try:
        expected = _plan_per_chunk(repo, chunk_ids)
    except RepositoryUnavailable as exc:
        with pytest.raises(RepositoryUnavailable, match=re.escape(str(exc))):
            repo._plan_fetch(chunk_ids)
        return
    plan = repo._plan_fetch(chunk_ids)
    assert list(plan.items()) == list(expected.items())
    assert all(type(k) is int and type(v) is int for k, v in plan.items())


def test_striped_fetch_uses_parallel_servers():
    """4 chunks striped over 4 servers arrive 4x faster than from one."""
    env, fabric, repo, servers, clients = make_repo(n_servers=4)
    done = []

    def proc():
        yield repo.fetch(np.arange(4), clients[0])
        done.append(env.now)

    env.process(proc())
    env.run()
    # Each server sends 100 B in parallel; client NIC 100 B/s is the limit:
    # aggregate 400 B at 100 B/s ingress -> 4 s; but each individual flow
    # gets 25 B/s... total 4 s either way (ingress-bound).
    assert done == [pytest.approx(4.0)]
    assert fabric.meter.bytes("repo-fetch") == pytest.approx(400.0)


def test_single_server_repo_serializes():
    env, fabric, repo, servers, clients = make_repo(n_servers=1)
    done = []

    def proc(client):
        yield repo.fetch(np.arange(4), client)
        done.append(env.now)

    env.process(proc(clients[0]))
    env.process(proc(clients[1]))
    env.run()
    # 800 B total through one 100 B/s server egress -> 8 s for both.
    assert done == [pytest.approx(8.0), pytest.approx(8.0)]


def test_concurrent_clients_spread_over_stripes():
    """With striping, two clients fetching disjoint chunks mostly hit
    different servers and finish near-independently."""
    env, fabric, repo, servers, clients = make_repo(n_servers=4)
    done = {}

    def proc(client, chunks, tag):
        yield repo.fetch(chunks, client)
        done[tag] = env.now

    env.process(proc(clients[0], np.array([0, 1]), "a"))
    env.process(proc(clients[1], np.array([2, 3]), "b"))
    env.run()
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_replication_balances_load():
    """With replication 2 a fetch prefers the less-loaded replica."""
    env, fabric, repo, servers, clients = make_repo(n_servers=2, replication=2)
    # Chunk 0 lives on s0,s1; chunk 1 on s1,s0.  Fetch both: balancer should
    # send one chunk from each server.
    done = []

    def proc():
        yield repo.fetch(np.array([0, 1]), clients[0])
        done.append(env.now)

    env.process(proc())
    env.run()
    # Balanced: two parallel 100 B flows into a 100 B/s NIC -> 2 s.
    assert done == [pytest.approx(2.0)]
    assert repo.bytes_served == pytest.approx(200.0)


def test_load_counter_returns_to_zero():
    env, fabric, repo, servers, clients = make_repo()
    env.process(iter_fetch(env, repo, clients[0]))
    env.run()
    assert (repo._load == 0).all()


def iter_fetch(env, repo, client):
    yield repo.fetch(np.arange(8), client)


class TestFaultInjection:
    def test_fail_server_validation(self):
        env, fabric, repo, servers, clients = make_repo()
        with pytest.raises(ValueError):
            repo.fail_server(99)

    def test_unreplicated_chunk_unreachable_after_failure(self):
        env, fabric, repo, servers, clients = make_repo(n_servers=4, replication=1)
        repo.fail_server(0)  # chunk 0 lives only on s0
        with pytest.raises(Exception, match="failed servers"):
            repo.fetch(np.array([0]), clients[0])

    def test_replication_survives_single_failure(self):
        env, fabric, repo, servers, clients = make_repo(n_servers=4, replication=2)
        repo.fail_server(0)
        done = []

        def proc():
            yield repo.fetch(np.array([0, 3]), clients[0])  # replicas incl. s0
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done and done[0] > 0

    def test_double_failure_defeats_two_replicas(self):
        env, fabric, repo, servers, clients = make_repo(n_servers=4, replication=2)
        repo.fail_server(0)
        repo.fail_server(1)  # chunk 0's replicas: s0, s1
        with pytest.raises(Exception, match="failed servers"):
            repo.fetch(np.array([0]), clients[0])

    def test_recovery_restores_service(self):
        env, fabric, repo, servers, clients = make_repo(n_servers=4, replication=1)
        repo.fail_server(0)
        repo.recover_server(0)
        assert repo.failed_servers == frozenset()
        ev = repo.fetch(np.array([0]), clients[0])
        env.run()
        assert ev.triggered

    def test_failed_server_carries_no_load(self):
        env, fabric, repo, servers, clients = make_repo(n_servers=2, replication=2)
        repo.fail_server(0)

        def proc():
            yield repo.fetch(np.arange(8), clients[0])

        env.process(proc())
        env.run()
        # Everything was served by s1.
        assert repo.bytes_served == pytest.approx(800.0)
        assert repo._load[0] == 0.0

    def test_vm_survives_repo_server_failure_with_replication(self):
        """End to end: a VM's cold reads keep working through a server
        failure when the repository is replicated."""
        from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
        from tests.conftest import SMALL_SPEC

        from repro.simkernel import Environment

        env = Environment()
        spec = dict(SMALL_SPEC)
        spec["repo_replication"] = 2
        cloud = CloudMiddleware(Cluster(env, ClusterSpec(**spec)))
        vm = cloud.deploy("vm0", cloud.cluster.node(0))
        cloud.cluster.repository.fail_server(1)
        done = []

        def proc():
            yield from vm.read(0, 16 * 2**20)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done
        assert vm.manager.chunks.present[:16].all()
