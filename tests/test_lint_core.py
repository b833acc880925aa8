"""Framework tests for repro.lint: registry, noqa, driver, reporters."""

import io
import json

import pytest

from repro.lint import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_VIOLATIONS,
    RULES,
    Rule,
    Violation,
    exit_code,
    iter_python_files,
    lint_project,
    parse_noqa,
    render,
    render_json,
    render_text,
    rule,
)
from repro.util.errors import ReproError

SIM_PATH = "src/repro/sim/fixture.py"


# -- registry ---------------------------------------------------------------

def test_builtin_rules_registered():
    assert set(RULES) == {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                          "RPR006", "RPR007"}
    for rule_id, cls in RULES.items():
        assert cls.id == rule_id
        assert cls.summary


def test_rule_decorator_rejects_bad_ids():
    class NoId(Rule):
        id = "XYZ1"
        summary = "whatever"

    with pytest.raises(ValueError, match="must look like"):
        rule(NoId)

    class NoSummary(Rule):
        id = "RPR999"
        summary = ""

    with pytest.raises(ValueError, match="summary"):
        rule(NoSummary)


def test_rule_decorator_rejects_duplicate_ids():
    class Duplicate(Rule):
        id = "RPR001"
        summary = "an impostor"

    with pytest.raises(ValueError, match="duplicate"):
        rule(Duplicate)
    assert RULES["RPR001"].summary != "an impostor"


def test_unknown_select_raises(lint_fixture):
    with pytest.raises(ReproError, match="RPR042"):
        lint_fixture("x = 1\n", "a.py", select=["RPR042"])


# -- noqa parsing -----------------------------------------------------------

def test_parse_noqa_bare_and_targeted():
    source = (
        "a = 1  # repro: noqa\n"
        "b = 2  # repro: noqa[RPR001,RPR005]\n"
        "c = 3  # repro: NOQA[rpr002]\n"
        "d = 4  # plain comment\n"
    )
    noqa = parse_noqa(source)
    assert noqa[1] == {"*"}
    assert noqa[2] == {"RPR001", "RPR005"}
    assert noqa[3] == {"RPR002"}
    assert 4 not in noqa


def test_parse_noqa_ignores_string_literals():
    assert parse_noqa("s = '# repro: noqa'\n") == {}


def test_noqa_suppresses_only_its_line_and_rule(lint_fixture):
    flagged = "window = 3600.0\n"
    assert [v.rule for v in lint_fixture(flagged, "x.py")] == ["RPR005"]
    suppressed = "window = 3600.0  # repro: noqa[RPR005]\n"
    assert lint_fixture(suppressed, "x.py") == []
    wrong_rule = "window = 3600.0  # repro: noqa[RPR001]\n"
    assert [v.rule for v in lint_fixture(wrong_rule, "x.py")] == ["RPR005"]
    bare = "window = 3600.0  # repro: noqa\n"
    assert lint_fixture(bare, "x.py") == []
    other_line = "# repro: noqa[RPR005]\nwindow = 3600.0\n"
    assert [v.rule for v in lint_fixture(other_line, "x.py")] == ["RPR005"]


# -- driver -----------------------------------------------------------------

def test_syntax_error_reports_rpr000(lint_fixture):
    violations = lint_fixture("def broken(:\n", "bad.py")
    assert len(violations) == 1
    assert violations[0].rule == "RPR000"
    assert "syntax error" in violations[0].message
    assert exit_code(violations) == EXIT_ERROR


def test_clean_source_is_clean(lint_fixture):
    assert lint_fixture("x = 1\n", SIM_PATH) == []


def test_violations_sorted_by_location(lint_fixture):
    source = "b = 86400\na = 3600\n"
    violations = lint_fixture(source, "x.py")
    assert [v.line for v in violations] == [1, 2]


def test_select_filters_rules(lint_fixture):
    source = "try:\n    pass\nexcept Exception:\n    pass\nx = 3600\n"
    all_rules = {v.rule for v in lint_fixture(source, "x.py")}
    assert all_rules == {"RPR004", "RPR005"}
    only = lint_fixture(source, "x.py", select=["RPR004"])
    assert {v.rule for v in only} == {"RPR004"}


def test_iter_python_files_and_lint_paths(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 3600\n")
    (tmp_path / "pkg" / "a.py").write_text("y = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python")
    single = tmp_path / "c.py"
    single.write_text("z = 86400\n")
    files = list(iter_python_files([tmp_path / "pkg", single]))
    assert [f.name for f in files] == ["a.py", "b.py", "c.py"]
    violations = lint_project([tmp_path / "pkg", single]).violations
    assert sorted(v.path.rsplit("/", 1)[-1] for v in violations) == \
        ["b.py", "c.py"]


# -- violations and reporters ----------------------------------------------

def test_violation_format_and_dict():
    v = Violation("RPR001", "src/x.py", 3, 7, "bad column")
    assert v.format() == "src/x.py:3:7: RPR001 bad column"
    assert v.to_dict() == {"rule": "RPR001", "path": "src/x.py", "line": 3,
                           "column": 7, "message": "bad column"}


def test_render_text_summary_and_statistics():
    violations = [Violation("RPR005", "x.py", 1, 1, "raw 3600"),
                  Violation("RPR005", "x.py", 2, 1, "raw 86400")]
    out = io.StringIO()
    render_text(violations, 4, out, statistics=True)
    text = out.getvalue()
    assert "x.py:1:1: RPR005 raw 3600" in text
    assert "2 violations in 4 file(s) checked" in text
    assert "RPR005" in text.splitlines()[-2]

    out = io.StringIO()
    render_text([], 4, out)
    assert out.getvalue() == "0 violations in 4 file(s) checked\n"


def test_render_json_document():
    violations = [Violation("RPR002", "s.py", 9, 5, "wall clock")]
    out = io.StringIO()
    render_json(violations, 2, out)
    document = json.loads(out.getvalue())
    assert document["files_checked"] == 2
    assert document["violation_count"] == 1
    assert document["exit_code"] == EXIT_VIOLATIONS
    assert document["violations"][0]["rule"] == "RPR002"
    assert document["rules"]["RPR002"]["violations"] == 1
    assert document["rules"]["RPR001"]["violations"] == 0


def test_render_returns_exit_code():
    assert render([], 1, io.StringIO()) == EXIT_CLEAN
    v = Violation("RPR005", "x.py", 1, 1, "m")
    assert render([v], 1, io.StringIO(), format="json") == EXIT_VIOLATIONS
    err = Violation("RPR000", "x.py", 1, 1, "syntax error: bad")
    assert render([err], 1, io.StringIO()) == EXIT_ERROR
