# simlint: module=repro.core.fixture
"""Batched same-instant admission, yielding after the batch: K405 quiet."""

from contextlib import contextmanager


def fan_out_then_wait(env, fabric, src, peers):
    sends = []
    with fabric.batch():
        for peer in peers:
            sends.append(fabric.transfer(src, peer, 4096, tag="app",
                                         cause="workload"))
    yield env.all_of(sends)


@contextmanager
def admission_scope(fabric):
    # A context manager's yield hands control back to its caller in the
    # same instant; it is not a process suspension.
    with fabric.batch():
        yield fabric
