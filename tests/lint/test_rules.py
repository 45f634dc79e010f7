"""Every rule family has a failing and a passing fixture.

The bad fixture for a family must trip *exactly* that family (no
collateral findings from other families), and the matching good fixture
must be completely clean — the pair pins both the sensitivity and the
specificity of each rule.
"""

from pathlib import Path

import pytest

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name):
    result = lint_paths([str(FIXTURES / name)])
    assert result.files_checked == 1
    return result


BAD_CASES = [
    ("bad_determinism.py", "D", {"D101", "D102", "D103", "D104"}),
    # host-time pragma waives D101/D102 only; D103/D104 must survive.
    ("bad_hosttime.py", "D", {"D103", "D104"}),
    ("bad_floattaint.py", "F", {"F601", "F602", "F603"}),
    ("bad_causetags.py", "C", {"C301", "C302", "C303"}),
    ("bad_kernel.py", "K", {"K401", "K402"}),
    ("bad_kernelflow.py", "K", {"K403", "K404"}),
    ("bad_probe.py", "P", {"P701", "P702", "P703"}),
    ("bad_structure.py", "S", {"S501"}),
    ("bad_obsdag.py", "S", {"S502"}),
    ("bad_kernelbatch.py", "K", {"K405"}),
    ("bad_probesink.py", "P", {"P704"}),
]


@pytest.mark.parametrize("name,family,expected_ids", BAD_CASES)
def test_bad_fixture_trips_exactly_its_family(name, family, expected_ids):
    result = lint_fixture(name)
    rules = {f.rule for f in result.findings}
    assert rules == expected_ids
    assert all(rule.startswith(family) for rule in rules)
    assert result.exit_code == 1


@pytest.mark.parametrize("name", [
    "good_determinism.py",
    "good_hosttime.py",
    "good_floattaint.py",
    "good_causetags.py",
    "good_kernel.py",
    "good_kernelflow.py",
    "good_kernelbatch.py",
    "good_probe.py",
    "good_probesink.py",
    "good_structure.py",
    "good_obsdag.py",
])
def test_good_fixture_is_clean(name):
    result = lint_fixture(name)
    assert result.findings == []
    assert result.exit_code == 0


@pytest.mark.parametrize("name,family,expected_ids", BAD_CASES)
def test_rule_filter_restricts_to_family(name, family, expected_ids):
    result = lint_paths([str(FIXTURES / name)], rules=[family])
    assert {f.rule for f in result.findings} == expected_ids
    other = lint_paths([str(FIXTURES / name)],
                       rules=["Z9"])
    assert other.findings == []


def test_findings_carry_location_and_hint():
    result = lint_fixture("bad_causetags.py")
    f = result.findings[0]
    assert f.path.endswith("bad_causetags.py")
    assert f.line > 1 and f.col >= 1
    assert "cause" in f.message
    assert f.hint


def test_every_bad_finding_names_its_fixture_line():
    result = lint_fixture("bad_determinism.py")
    source = (FIXTURES / "bad_determinism.py").read_text().splitlines()
    for f in result.findings:
        assert 1 <= f.line <= len(source)


def test_dataflow_findings_carry_witness_paths():
    # Witnesses walk origin -> assignments -> sink, each hop located
    # inside the fixture, ending at the finding's own line.
    for name, rule in [("bad_floattaint.py", "F601"),
                       ("bad_probe.py", "P701"),
                       ("bad_kernelflow.py", "K403"),
                       ("bad_kernelbatch.py", "K405")]:
        result = lint_fixture(name)
        found = [f for f in result.findings if f.rule == rule]
        assert found, (name, rule)
        witness = found[0].witness
        assert len(witness) >= 2
        source = (FIXTURES / name).read_text().splitlines()
        for h in witness:
            assert 1 <= h.line <= len(source)
            assert h.note
        assert witness[-1].line == found[0].line


def test_float_taint_clears_boundary_conversions():
    # float() is a coercion, not an origin: Fraction(float(nbytes)) in
    # the good fixture must never fire, while the same module's
    # rendering floats (wall_us / 1e6) stay legal because they never
    # reach a sink.  This is the proof-over-marker payoff.
    result = lint_fixture("good_floattaint.py")
    assert result.findings == []


def test_daemon_pragma_counts_in_budget():
    result = lint_fixture("good_kernelflow.py")
    assert result.findings == []
    assert len(result.suppressions) == 1
    entry = result.suppressions[0]
    assert entry["rules"] == ["K404"]
    assert entry["used"] is True
    assert "reaper" in entry["reason"]
