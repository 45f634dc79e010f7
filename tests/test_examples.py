"""Smoke tests: every example script runs end-to-end and prints its
headline results."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "migration time" in out
    assert "consistency check passed" in out


def test_datacenter_evacuation():
    out = run_example("datacenter_evacuation.py")
    assert "our-approach" in out and "precopy" in out
    assert "pin time" in out


def test_hpc_stencil_rebalancing():
    out = run_example("hpc_stencil_rebalancing.py")
    assert "BSP-amplified slowdown" in out
    assert "pvfs-shared" in out


def test_postcopy_memory_extension():
    out = run_example("postcopy_memory_extension.py")
    assert "pre-copy" in out and "post-copy" in out
    assert "time to control" in out


def test_dedup_and_advisor():
    out = run_example("dedup_and_advisor.py")
    assert "de-duplication" in out
    assert "Phase timeline" in out
    assert "downtime" in out


def test_cloud_operations():
    out = run_example("cloud_operations.py")
    assert "balanced" in out
    assert "evacuated for maintenance" in out
    assert "power down" in out
    assert "checkpointed" in out


def test_proactive_fault_tolerance():
    out = run_example("proactive_fault_tolerance.py")
    assert "PREDICTED FAILURE" in out
    assert "UNEXPECTED FAILURE" in out
    assert "restored on node5" in out


def test_trace_a_migration():
    out = run_example("trace_a_migration.py")
    assert "migration traced" in out
    assert "trace events recorded" in out
    assert "push.batch.chunks" in out
    assert "load it in Perfetto" in out


def test_mapreduce_scratch_study():
    out = run_example("mapreduce_scratch_study.py")
    assert "local scratch (ceiling)" in out
    assert "pvfs-shared scratch" in out
    assert "vs local ceiling" in out
