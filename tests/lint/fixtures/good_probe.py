# simlint: module=repro.core.fixture
"""Observe-only telemetry probes: P stays quiet."""


class Migrator:
    def __init__(self, env, meter):
        self.env = env
        self.meter = meter
        self.retries = 0

    def step(self, nbytes):
        # Mutations happen in plain simulation code, outside any guard.
        self.retries += 1
        done = self.env.timeout(0.001)
        pb = self.env.probe
        if pb.enabled:
            # Reads of sim state, locals, and probe calls (including the
            # causal sub-recorder) are all sanctioned.
            backlog = self.meter.total - nbytes
            pb.gauge("migrator.window", self.env.now, nbytes)
            pb.gauge("migrator.backlog", self.env.now, backlog)
            if pb.causal is not None:
                pb.causal.record_wait("migrator", 0, self.env.now, done)
        return done
