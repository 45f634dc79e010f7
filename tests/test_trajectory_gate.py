"""Trajectory gate failures must print the ranked delta table.

The benchmark harness is a plain script (not collected by pytest), so
these tests import it by path and force a regression by monkeypatching
the measurement step — the gate math and the ``repro.obs.diff``
attribution run for real against a crafted history.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", REPO_ROOT / "benchmarks" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(git, wall_s, events, links=1000, scope_wall=0.5):
    return {
        "schema": "repro.bench/1",
        "mode": "quick",
        "git": git,
        "timestamp": "2026-08-07T00:00:00+00:00",
        "conservation_ok": True,
        "critical_path_ok": True,
        "scenarios": [{
            "name": "event_loop",
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s,
            "profile": {
                "wall_s": {"kernel.step": scope_wall},
                "counters": {"maxmin.links_visited": links,
                             "maxmin.invocations": 100},
            },
        }],
    }


def test_gate_failure_prints_ranked_delta_table(trajectory, tmp_path,
                                                monkeypatch, capsys):
    out = tmp_path / "BENCH.json"
    fast = _entry("fast00", wall_s=0.1, events=100_000)
    slow = _entry("slow00", wall_s=1.0, events=100_000,
                  links=90_000, scope_wall=5.0)
    out.write_text(json.dumps([fast]))
    monkeypatch.setattr(trajectory, "run_trajectory",
                        lambda quick, report: slow)
    rc = trajectory.main(["--quick", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "events/sec regressed" in err
    # The attribution table: engine header, the scope that moved, the
    # counter that exploded, and the conservation verdict.
    assert "repro diff (bench)" in err
    assert "event_loop/kernel.step" in err
    assert "event_loop/maxmin.links_visited" in err
    assert "conservation exact" in err


def test_gate_pass_prints_no_table(trajectory, tmp_path, monkeypatch,
                                   capsys):
    out = tmp_path / "BENCH.json"
    fast = _entry("fast00", wall_s=0.1, events=100_000)
    out.write_text(json.dumps([fast]))
    monkeypatch.setattr(trajectory, "run_trajectory",
                        lambda quick, report: _entry("same00", 0.1, 100_000))
    rc = trajectory.main(["--quick", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 0
    assert "repro diff" not in err


def test_no_gate_still_prints_table(trajectory, tmp_path, monkeypatch,
                                    capsys):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps([_entry("fast00", 0.1, 100_000)]))
    monkeypatch.setattr(trajectory, "run_trajectory",
                        lambda quick, report: _entry("slow00", 1.0, 100_000))
    rc = trajectory.main(["--quick", "--out", str(out), "--no-gate"])
    err = capsys.readouterr().err
    assert rc == 0
    assert "repro diff (bench)" in err


def test_explain_regression_none_without_history(trajectory):
    entry = _entry("only00", 0.1, 100_000)
    assert trajectory.explain_regression(entry, [entry]) is None


def test_bench_report_history_table(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "benchmarks" / "bench_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps([
        _entry("aaa111", 0.1, 100_000),
        _entry("bbb222", 0.2, 100_000, links=2000),
    ]))
    rc = module.main([str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 entries" in out
    # One row per entry, not just the latest; counters as columns.
    assert "aaa111" in out and "bbb222" in out
    assert "links_visited" in out
    assert module.main([str(tmp_path / "missing.json")]) == 2


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))


def test_obs_overhead_is_reported_not_gated(trajectory, monkeypatch):
    monkeypatch.setattr(trajectory, "OBS_ROUNDS", 1)
    overhead = trajectory.obs_overhead()
    assert overhead["name"] == "obs_overhead"
    assert "events_per_s" not in overhead
    assert set(overhead["channels"]) == set(trajectory.OBS_CHANNELS)
    for channel in overhead["channels"].values():
        assert channel["ratio"] == pytest.approx(
            channel["wall_s"] / overhead["wall_s"], rel=1e-3)
    # The events/sec gate reads the kernel scenarios only.
    entry = _entry("abc", 1.0, 1000)
    before = trajectory._aggregate_events_per_s(entry)
    entry["scenarios"].append(overhead)
    assert trajectory._aggregate_events_per_s(entry) == before


def test_git_head_marks_an_uncommitted_tree_dirty(trajectory, tmp_path):
    """An entry measured on a modified tree must not carry the bare hash
    of the commit it was modified from."""
    import subprocess

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t",
             "-c", "user.email=t@example.invalid", *args],
            capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "f.txt").write_text("one\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "--short", "HEAD")
    assert trajectory._git_head(tmp_path) == head
    (tmp_path / "f.txt").write_text("two\n")
    assert trajectory._git_head(tmp_path) == f"{head}-dirty"
    git("commit", "-q", "-am", "second")
    assert trajectory._git_head(tmp_path) == git("rev-parse", "--short",
                                                 "HEAD")
