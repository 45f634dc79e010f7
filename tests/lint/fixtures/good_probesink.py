# simlint: module=repro.core.fixture
"""One probe per site: every record goes through ``env.probe``."""


class Migrator:
    def __init__(self, env, series):
        self.env = env
        # A simulation object's own attribute that happens to share a
        # sink's name is not the environment's sink.
        self.series = series

    def step(self, nbytes):
        pb = self.env.probe
        if pb.enabled:
            pb.instant("migrator.step", args={"bytes": nbytes})
            pb.gauge("migrator.window", self.env.now, nbytes)
            if pb.causal is not None:  # the causal hook is not a sink
                pb.causal.record_wait("migrator", 0, self.env.now, None)
        return len(self.series)
