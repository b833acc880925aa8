"""The lint driver over a tree: module names, the graph the reachability
walk resolves with, rule registry invariants, same-stem files and
per-rule timings.
"""

import textwrap

import pytest

from repro.lint import RULES, Rule, lint_project, rule
from repro.lint.graph import ProjectGraph, module_name


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# graph


def test_module_name_walks_package_chain(tmp_path):
    write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/engine.py": "",
        "standalone.py": "",
    })
    assert module_name(tmp_path / "repro/sim/engine.py") == "repro.sim.engine"
    assert module_name(tmp_path / "repro/sim/__init__.py") == "repro.sim"
    assert module_name(tmp_path / "standalone.py") == "standalone"


def test_resolve_symbol_through_reexport(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "from repro.impl import helper\n",
        "repro/impl.py": "def helper():\n    return 1\n",
    })
    graph = ProjectGraph.build(
        (p, p.read_text()) for p in sorted(root.rglob("*.py")))
    resolved = graph.resolve_symbol("repro.helper")
    assert resolved is not None
    assert resolved[0].name == "repro.impl"
    assert resolved[1] == "helper"


# ---------------------------------------------------------------------------
# rule registry invariants


def test_rule_ids_unique_and_well_formed():
    import re
    assert len(RULES) == len(set(RULES))
    for rule_id, cls in RULES.items():
        assert re.match(r"^RPR\d{3}$", rule_id)
        assert cls.id == rule_id
        assert cls.summary


def test_duplicate_rule_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        @rule
        class Duplicate(Rule):  # noqa  (intentionally clashing id)
            id = "RPR007"
            summary = "duplicate registration must fail"


# ---------------------------------------------------------------------------
# module-name collisions


def test_same_stem_scripts_do_not_collide(tmp_path):
    # Two files resolving to the same dotted module name (same-stem
    # scripts in non-package directories) are both linted: the clean one
    # never hides or inherits the other's violation.
    write_tree(tmp_path, {
        "a/tool.py": "def load(path):\n    try:\n        return open(path)\n"
                     "    except Exception:\n        return None\n",
        "b/tool.py": "X = 1\n",
    })
    for roots in ([tmp_path / "a", tmp_path / "b"],
                  [tmp_path / "b", tmp_path / "a"]):
        result = lint_project(roots, select=["RPR004"])
        assert result.files_total == 2
        assert [v.path.rsplit("/", 2)[-2:] for v in result.violations] \
            == [["a", "tool.py"]]


# ---------------------------------------------------------------------------
# per-rule timings


TIMING_TREE = {
    "repro/__init__.py": "",
    "repro/base.py": "def origin():\n    return [1, 2]\n",
    "repro/mid.py": textwrap.dedent("""\
        from repro.base import origin


        def carry():
            return origin()
        """),
    "repro/top.py": textwrap.dedent("""\
        import json

        from repro.mid import carry


        def emit():
            return json.dumps(carry())
        """),
    "repro/leaf.py": "Z = 3\n",
}


def test_project_result_reports_rule_timings(tmp_path):
    root = write_tree(tmp_path / "proj", TIMING_TREE)
    result = lint_project([root])
    assert set(result.timings) == set(RULES)
    # One timed call per rule per file.
    assert {h.count for h in result.timings.values()} == {len(TIMING_TREE)}

