# simlint: module=repro.core.fixture
"""Simulated time passing inside a fabric batch: K405 fires."""


def fan_out_then_wait(env, fabric, src, peers):
    sends = []
    with fabric.batch():
        for peer in peers:
            sends.append(fabric.transfer(src, peer, 4096, tag="app",
                                         cause="workload"))
        yield env.all_of(sends)     # K405: the clock moves, batch open


def paced_stripes(env, repo, stripes, dest):
    with repo.fabric.batch():
        for chunk_ids in stripes:
            yield repo.fetch(chunk_ids, dest, tag="repo-fetch",
                             cause="prefetch")   # K405
            yield env.timeout(0.5)              # K405
