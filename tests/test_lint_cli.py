"""CLI tests for ``borg-repro lint``: exit codes, formats, dogfooding."""

import json
import re
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import RULES, lint_project

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_clean_file_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "clean.py", "x = 1\n")
    assert main(["lint", path]) == 0
    out = capsys.readouterr().out
    assert "0 violations in 1 file(s) checked" in out


def test_violations_exit_one_text(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", "window = 3600.0\n")
    assert main(["lint", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:1:10: RPR005" in out
    assert "1 violation in 1 file(s) checked" in out


def test_violations_exit_one_json(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", "window = 3600.0\nd = 86400\n")
    assert main(["lint", path, "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["violation_count"] == 2
    assert document["exit_code"] == 1
    assert document["rules"]["RPR005"]["violations"] == 2
    assert {v["rule"] for v in document["violations"]} == {"RPR005"}
    assert document["violations"][0]["path"] == path


def test_syntax_error_exits_two(tmp_path, capsys):
    path = write(tmp_path, "broken.py", "def nope(:\n")
    assert main(["lint", path, "--format", "json"]) == 2
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 2
    assert document["violations"][0]["rule"] == "RPR000"


def test_select_limits_rules(tmp_path, capsys):
    source = "try:\n    pass\nexcept Exception:\n    pass\nx = 3600\n"
    path = write(tmp_path, "mixed.py", source)
    assert main(["lint", path, "--select", "rpr005"]) == 1
    out = capsys.readouterr().out
    assert "RPR005" in out
    assert "RPR004" not in out
    assert main(["lint", path, "--select", "RPR004,RPR005"]) == 1
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_unknown_rule_exits_two(tmp_path, capsys):
    path = write(tmp_path, "clean.py", "x = 1\n")
    assert main(["lint", path, "--select", "RPR042"]) == 2
    assert "RPR042" in capsys.readouterr().err


def test_statistics_flag(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", "a = 3600\nb = 86400\n")
    assert main(["lint", path, "--statistics"]) == 1
    out = capsys.readouterr().out
    assert "RPR005     2" in out


def test_statistics_calls_equal_files_checked(tmp_path, capsys):
    # Each rule is called once per file.
    for name in ("a.py", "b.py", "c.py"):
        write(tmp_path, name, "import json\n\n\ndef f(x):\n"
                              "    return json.dumps(sorted(x))\n")
    assert main(["lint", str(tmp_path), "--statistics"]) == 0
    out = capsys.readouterr().out
    assert "rule timings (over per-file checks):" in out
    calls = dict(re.findall(r"^  (RPR\d{3})  calls=\s*(\d+)", out, re.M))
    assert calls == {rule_id: "3" for rule_id in RULES}
    assert "0 violations in 3 file(s) checked" in out


def test_directory_lint_counts_files(tmp_path, capsys):
    write(tmp_path, "a.py", "x = 1\n")
    write(tmp_path, "b.py", "y = 2\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert "2 file(s) checked" in capsys.readouterr().out


def test_repo_src_is_lint_clean():
    """Dogfood gate: the tree the CI lint job checks stays clean, under
    every rule."""
    result = lint_project([REPO_SRC])
    assert set(result.timings) == set(RULES)
    assert result.violations == [], \
        "\n".join(v.format() for v in result.violations)


#: One violation of each rule, RPR001-RPR007, in one package tree.
ALL_RULES_TREE = {
    "repro/__init__.py": "",
    "repro/analysis/__init__.py": "",
    "repro/analysis/columns.py": """\
        def cpu(trace):
            return trace.instance_usage.column("cpu_avg")
        """,
    "repro/sim/__init__.py": "",
    "repro/sim/engine.py": """\
        import numpy as np


        def jitter():
            return np.random.rand()


        def run(self):
            while self._heap:
                self.recorder.tick(self.now)
        """,
    "repro/scan.py": """\
        def total_rows(scan):
            return scan.map_reduce(len, lambda a, b: a + b)
        """,
    "repro/loader.py": """\
        def load(path):
            try:
                return open(path).read()
            except Exception:
                return None
        """,
    "repro/units.py": "WINDOW = 3600.0\n",
    "repro/spans.py": """\
        from repro import obs


        def work(kind):
            with obs.span("sim." + kind):
                pass
        """,
}


def test_all_seven_rules_through_the_cli(tmp_path, capsys):
    for rel, source in ALL_RULES_TREE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    found = [(v["rule"], Path(v["path"]).relative_to(tmp_path).as_posix(),
              v["line"]) for v in document["violations"]]
    assert sorted(found) == [
        ("RPR001", "repro/analysis/columns.py", 2),
        ("RPR002", "repro/sim/engine.py", 5),
        ("RPR003", "repro/scan.py", 2),
        ("RPR004", "repro/loader.py", 4),
        ("RPR005", "repro/units.py", 1),
        ("RPR006", "repro/spans.py", 5),
        ("RPR007", "repro/sim/engine.py", 10),
    ]
    assert document["files_checked"] == len(ALL_RULES_TREE)
    assert document["exit_code"] == 1


def test_a_file_named_twice_is_checked_once(tmp_path, capsys):
    path = write(tmp_path, "dup.py", "window = 3600.0\n")
    assert main(["lint", path, path]) == 1
    out = capsys.readouterr().out
    assert out.count("RPR005") == 1
    assert "1 violation in 1 file(s) checked" in out


def test_a_file_inside_a_named_tree_is_checked_once(tmp_path, capsys):
    for rel, source in ALL_RULES_TREE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    units = tmp_path / "repro" / "units.py"
    assert main(["lint", str(tmp_path), str(units), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    rules = [v["rule"] for v in document["violations"]]
    assert rules.count("RPR005") == 1
    assert len(rules) == 7
    assert document["files_checked"] == len(ALL_RULES_TREE)
