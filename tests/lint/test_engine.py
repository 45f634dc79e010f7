"""Engine behaviour: clean tree at HEAD, deterministic JSON, pragmas."""

import json
from pathlib import Path

import pytest

from repro.lint import lint_paths, render_json, render_text
from repro.lint.engine import module_name_for
from repro.lint.pragmas import parse_pragmas

REPO = Path(__file__).parents[2]
SRC = REPO / "src"


@pytest.fixture(scope="session")
def src_lint():
    """One lint of ``src/``, shared by the tests that make that same call."""
    return lint_paths([str(SRC)])


def test_src_tree_is_clean_at_head(src_lint):
    assert src_lint.findings == [], "\n" + render_text(src_lint)
    assert src_lint.exit_code == 0
    assert src_lint.files_checked > 50


def test_src_suppression_budget_is_small_and_fully_used(src_lint):
    assert len(src_lint.suppressions) <= 5
    assert all(s["used"] for s in src_lint.suppressions)


def test_json_output_is_deterministic(src_lint):
    # The second lint is a fresh, independent run over the same tree.
    a = render_json(src_lint)
    b = render_json(lint_paths([str(SRC)]))
    assert a == b
    payload = json.loads(a)
    assert payload["version"] == 1
    assert payload["exit_code"] == 0
    assert payload["findings"] == []


def test_suppressed_findings_are_reported_not_dropped(tmp_path):
    bad = tmp_path / "snippet.py"
    bad.write_text(
        "# simlint: module=repro.core.fixture\n"
        "def f(fabric, a, b):\n"
        "    return fabric.message(a, b, tag='control')"
        "  # simlint: ignore[C301] -- legacy call\n"
    )
    result = lint_paths([str(bad)])
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["C301"]
    assert result.suppressed[0].suppressed
    assert result.suppressions[0]["used"]


def test_unused_suppression_is_flagged_in_budget(tmp_path):
    ok = tmp_path / "snippet.py"
    ok.write_text(
        "# simlint: module=repro.core.fixture\n"
        "x = 1  # simlint: ignore[D101] -- stale pragma\n"
    )
    result = lint_paths([str(ok)])
    assert result.findings == []
    assert result.suppressions[0]["used"] is False
    assert "UNUSED" in render_text(result)


def test_pragma_mentions_in_docstrings_are_not_pragmas():
    pragmas = parse_pragmas(
        '"""Docs show `# simlint: ignore[D101]` as an example."""\n'
        "x = 1\n"
    )
    assert pragmas.suppressions == {}
    assert not pragmas.exact


def test_syntax_error_becomes_a_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = lint_paths([str(bad)])
    assert [f.rule for f in result.findings] == ["E000"]
    assert result.exit_code == 1


def test_module_name_inference_follows_packages():
    assert module_name_for(
        SRC / "repro" / "netsim" / "flows.py") == "repro.netsim.flows"
    assert module_name_for(
        SRC / "repro" / "simkernel" / "__init__.py") == "repro.simkernel"


def test_pycache_and_hidden_dirs_are_skipped(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("import time\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "junk.py").write_text("import time\n")
    result = lint_paths([str(tmp_path)])
    assert result.files_checked == 0


def test_witness_json_is_byte_identical_across_runs():
    fixtures = Path(__file__).parent / "fixtures"
    target = str(fixtures / "bad_floattaint.py")
    a = render_json(lint_paths([target]))
    b = render_json(lint_paths([target]))
    assert a == b
    payload = json.loads(a)
    f601 = [f for f in payload["findings"] if f["rule"] == "F601"]
    assert f601 and f601[0]["witness"][0]["note"].startswith("float literal")


def test_budget_reports_reasons():
    fixtures = Path(__file__).parent / "fixtures"
    result = lint_paths([str(fixtures / "good_kernelflow.py")])
    text = render_text(result)
    assert "-- reaper runs for the whole sim" in text


def test_differential_and_golden_harnesses_are_clean():
    # Satellite of the byte-exactness story: the suites that compare
    # runs bit-for-bit are themselves in determinism scope.
    result = lint_paths([str(REPO / "tests" / "differential"),
                         str(REPO / "tests" / "golden")])
    assert result.findings == [], "\n" + render_text(result)
