"""End-to-end observability tests: CLI export, determinism, zero overhead."""

import json

from repro.cli import main
from repro.cluster import CloudMiddleware, Cluster
from repro.experiments.config import graphene_spec
from repro.obs import Observability
from repro.simkernel import Environment
from repro.workloads.synthetic import SequentialWriter

MB = 2**20


def _run_mini_migration(obs=None):
    """One small hybrid migration under write pressure; returns (env, record)."""
    env = Environment()
    if obs is not None:
        obs.install(env)
    cloud = CloudMiddleware(Cluster(env, graphene_spec(4)))
    vm = cloud.deploy("vm0", cloud.cluster.node(0), approach="our-approach")
    wl = SequentialWriter(
        vm, total_bytes=256 * MB, rate=60e6, op_size=4 * MB,
        region_offset=0, region_size=256 * MB, seed=1,
    )
    wl.start()
    done = {}

    def migrator():
        yield env.timeout(2.0)
        done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

    env.process(migrator())
    env.run()
    return env, done["rec"]


class TestCliAcceptance:
    def test_single_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main([
            "single", "--approach", "our-approach", "--workload", "ior",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        assert "our-approach" in capsys.readouterr().out

        # Valid Chrome trace-event JSON with the expected fields.
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert "ph" in ev and "name" in ev
            if ev["ph"] != "M":
                assert "ts" in ev
        names = {e["name"] for e in events}
        assert "push.batch" in names
        assert "prefetch.batch" in names

        # Metrics dump holds the push/prefetch/pull counter families.
        dump = json.loads(metrics.read_text())
        counters = dump["runs"]["our-approach/ior"]["counters"]
        assert counters["push.batch.chunks"] > 0
        assert counters["prefetch.batch.chunks"] > 0
        assert "push.hot_exclusion.chunks" in counters

    def test_jsonl_suffix_selects_line_stream(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        rc = main([
            "fig2", "--approach", "our-approach", "--trace", str(trace),
        ])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all("ph" in json.loads(line) for line in lines)


class TestDeterminism:
    def test_identical_runs_emit_byte_identical_traces(self, tmp_path):
        paths = []
        for i in range(2):
            obs = Observability()
            with obs.run_scope("mini"):
                _run_mini_migration(obs)
            path = tmp_path / f"run{i}.json"
            obs.write(trace_path=path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestZeroOverhead:
    def test_tracing_does_not_perturb_the_simulation(self):
        env_plain, rec_plain = _run_mini_migration(obs=None)
        obs = Observability(detail="full")
        env_traced, rec_traced = _run_mini_migration(obs=obs)

        # The NullTracer run and the fully-traced run schedule exactly the
        # same kernel events and land on the same results.
        assert env_plain._seq == env_traced._seq
        assert env_plain.now == env_traced.now
        assert rec_plain.migration_time == rec_traced.migration_time
        assert rec_plain.downtime == rec_traced.downtime
        assert rec_plain.phases == rec_traced.phases
        assert obs.tracer.events  # the traced run did record something
