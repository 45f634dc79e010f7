# simlint: module=repro.core.fixture
"""Telemetry sinks read around the probe: P704 fires on each read."""


class Migrator:
    def __init__(self, env):
        self.env = env

    def step(self, nbytes):
        tr = self.env.tracer                      # P704: sink off the env
        if tr.enabled:
            tr.instant("migrator.step", args={"bytes": nbytes})
        pb = self.env.probe
        if pb.enabled:
            pb.series.gauge("migrator.window", self.env.now, nbytes)  # P704

    def done(self, env):
        env.metrics.counter("migrator.done").inc()  # P704: unguarded too
