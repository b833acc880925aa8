"""Whole-program lint: graph, flow rules, suppression.

Each flow-rule fixture splits source, propagation, and sink across
*different modules* — a violation no single file shows, and the reason
RPR008–010 exist at all.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES, Rule, lint_project, rule
from repro.lint.graph import ProjectGraph, module_name
from repro.lint.project import ProjectContext


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def violations_of(result, rule_id):
    return [v for v in result.violations if v.rule == rule_id]


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
# RPR008 — determinism taint across modules


RPR008_TREE = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/sim/engine.py": """\
        def step(now):
            return now
        """,
    "repro/clockutil.py": """\
        import time


        def stamp():
            return time.time()
        """,
    "repro/driver.py": """\
        from repro.clockutil import stamp
        from repro.sim.engine import step


        def run():
            t = stamp()
            return step(t)
        """,
}


def test_rpr008_cross_module_wall_clock(tmp_path):
    root = write_tree(tmp_path, RPR008_TREE)
    result = lint_project([root], select=["RPR008"])
    hits = violations_of(result, "RPR008")
    assert len(hits) == 1
    assert hits[0].path.endswith("driver.py")
    # Anchored at the line where taint enters driver.py: the stamp() call.
    assert hits[0].line == 6
    assert "time.time" in hits[0].message or "stamp" in hits[0].message


def test_rpr008_seeded_generator_is_clean(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/engine.py": "def step(value):\n    return value\n",
        "repro/driver.py": """\
            import numpy as np

            from repro.sim.engine import step


            def run(seed):
                rng = np.random.default_rng(seed)
                return step(rng)
            """,
    })
    result = lint_project([root], select=["RPR008"])
    assert violations_of(result, "RPR008") == []


# ---------------------------------------------------------------------------
# RPR009 — fork-share races across modules


RPR009_TREE = {
    "repro/__init__.py": "",
    "repro/state.py": """\
        CACHE = {}


        def bump(key):
            CACHE[key] = 1
        """,
    "repro/work.py": """\
        from repro.state import bump


        def task(item):
            bump(item)
            return item
        """,
    "repro/runner.py": """\
        from multiprocessing import Pool

        from repro.work import task


        def run(items):
            with Pool() as pool:
                return list(pool.imap(task, items))
        """,
}


def test_rpr009_cross_module_pool_write(tmp_path):
    root = write_tree(tmp_path, RPR009_TREE)
    result = lint_project([root], select=["RPR009"])
    hits = violations_of(result, "RPR009")
    assert len(hits) == 1
    # Reported where the access happens — two modules away from the pool.
    assert hits[0].path.endswith("state.py")
    assert hits[0].line == 5
    assert "CACHE" in hits[0].message
    assert "scoped-registry" in hits[0].message


def test_rpr009_import_time_registry_read_is_clean(tmp_path):
    tree = dict(RPR009_TREE)
    # Reading a registry that is only populated at import time is safe:
    # every process re-imports and sees identical contents.
    tree["repro/state.py"] = textwrap.dedent("""\
        CACHE = {"a": 1}


        def bump(key):
            return CACHE[key]
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR009"])
    assert violations_of(result, "RPR009") == []


def test_rpr009_partial_wrapped_callable(tmp_path):
    tree = dict(RPR009_TREE)
    tree["repro/runner.py"] = textwrap.dedent("""\
        import functools
        from multiprocessing import Pool

        from repro.work import task


        def run(items):
            bound = functools.partial(task, items[0])
            with Pool() as pool:
                return list(pool.imap(bound, items))
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR009"])
    assert len(violations_of(result, "RPR009")) == 1


@pytest.mark.parametrize("call", [
    "obs.fan_out(task, items, 2, section='sim')",
    "fan_out(task, items, 2, section='sim')",
])
def test_rpr009_fan_out_is_a_submission_site(tmp_path, call):
    tree = dict(RPR009_TREE)
    tree["repro/runner.py"] = textwrap.dedent(f"""\
        from repro import obs
        from repro.obs import fan_out
        from repro.work import task


        def run(items):
            return list({call})
        """)
    root = write_tree(tmp_path, tree)
    hits = violations_of(lint_project([root], select=["RPR009"]), "RPR009")
    assert len(hits) == 1
    assert hits[0].path.endswith("state.py")
    assert "repro.runner.run()" in hits[0].message


def test_rpr009_worker_closure_over_src_reaches_every_fan_out_target():
    import repro
    from repro.lint.rules.fork_share import project_analysis

    package = Path(repro.__file__).resolve().parent
    graph = ProjectGraph.build(
        (p, p.read_text(encoding="utf-8"))
        for p in sorted(package.rglob("*.py")))
    closure = project_analysis(ProjectContext(graph)).worker_entry
    assert {("repro.sim.driver", "cell_task"),
            ("repro.campaign.runner", "evaluate_point"),
            ("repro.store.executor", "run_chunk_task")} <= set(closure)


# ---------------------------------------------------------------------------
# RPR010 — iteration order across modules


RPR010_TREE = {
    "repro/__init__.py": "",
    "repro/collect.py": """\
        def uniq(items):
            return list(set(items))
        """,
    "repro/emit.py": """\
        import json

        from repro.collect import uniq


        def dump(items):
            return json.dumps(uniq(items))
        """,
}


def test_rpr010_cross_module_set_to_json(tmp_path):
    root = write_tree(tmp_path, RPR010_TREE)
    result = lint_project([root], select=["RPR010"])
    hits = violations_of(result, "RPR010")
    assert len(hits) == 1
    assert hits[0].path.endswith("emit.py")
    assert "sorted()" in hits[0].message


def test_rpr010_sorted_sanitizes(tmp_path):
    tree = dict(RPR010_TREE)
    tree["repro/emit.py"] = textwrap.dedent("""\
        import json

        from repro.collect import uniq


        def dump(items):
            return json.dumps(sorted(uniq(items)))
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR010"])
    assert violations_of(result, "RPR010") == []


def test_rpr010_comprehension_over_sorted_is_clean(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(paths):
                found = []
                for path in paths.iterdir():
                    found.append(path)
                return json.dumps([str(p) for p in sorted(found)])
            """,
    })
    result = lint_project([root], select=["RPR010"])
    assert violations_of(result, "RPR010") == []


# ---------------------------------------------------------------------------
# noqa is line-narrow for flow rules


def test_flow_noqa_on_sink_line_does_not_hide_source(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(xs):
                data = set(xs)
                return json.dumps(data)  # repro: noqa[RPR010]
            """,
    })
    result = lint_project([root], select=["RPR010"])
    hits = violations_of(result, "RPR010")
    # The violation anchors at the *source* line (set(xs)); the noqa on
    # the sink line suppresses nothing.
    assert len(hits) == 1
    assert hits[0].line == 5


def test_flow_noqa_on_source_line_suppresses(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(xs):
                data = set(xs)  # repro: noqa[RPR010] order-free payload
                return json.dumps(data)
            """,
    })
    result = lint_project([root], select=["RPR010"])
    assert violations_of(result, "RPR010") == []


def test_two_sources_need_two_suppressions(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(xs, ys):
                a = set(xs)  # repro: noqa[RPR010] order-free payload
                b = set(ys)
                return json.dumps([a, b])
            """,
    })
    result = lint_project([root], select=["RPR010"])
    hits = violations_of(result, "RPR010")
    assert len(hits) == 1
    assert hits[0].line == 6


# ---------------------------------------------------------------------------
# rule registry invariants


def test_rule_ids_unique_and_well_formed():
    import re
    assert len(RULES) == len(set(RULES))
    for rule_id, cls in RULES.items():
        assert re.match(r"^RPR\d{3}$", rule_id)
        assert cls.id == rule_id
        assert cls.summary
    assert {"RPR008", "RPR009", "RPR010"} <= set(RULES)


def test_duplicate_rule_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        @rule
        class Duplicate(Rule):  # noqa  (intentionally clashing id)
            id = "RPR008"
            summary = "duplicate registration must fail"


# ---------------------------------------------------------------------------
# RPR009 facts flow against import edges


READ_TREE = {
    "repro/__init__.py": "",
    "repro/state.py": "CACHE = {}\n",
    "repro/work.py": """\
        from repro import state


        def task(item):
            return state.CACHE[item]
        """,
    "repro/runner.py": """\
        from multiprocessing import Pool

        from repro.work import task


        def run(items):
            with Pool() as pool:
                return list(pool.imap(task, items))
        """,
    "repro/writer.py": """\
        from repro import state


        def poke():
            return None
        """,
}


def test_rpr009_read_verdict_follows_unrelated_writer(tmp_path):
    # A worker READ of a never-written global is safe.  A module with no
    # import relationship to the worker gaining a runtime write flips
    # the worker's verdict.
    root = write_tree(tmp_path / "clean", READ_TREE)
    assert lint_project([root], select=["RPR009"]).violations == []
    tree = dict(READ_TREE)
    tree["repro/writer.py"] = """\
        from repro import state


        def poke():
            state.CACHE["k"] = 1
        """
    root = write_tree(tmp_path / "written", tree)
    paths = {v.path.rsplit("/", 1)[-1]
             for v in violations_of(lint_project([root], select=["RPR009"]),
                                    "RPR009")}
    assert "work.py" in paths


# ---------------------------------------------------------------------------
# module-name collisions


def test_same_stem_scripts_do_not_collide(tmp_path):
    # Two files resolving to the same dotted module name (same-stem
    # scripts in non-package directories) must keep separate graph
    # entries: the clean one never hides or inherits the other's
    # violation.
    write_tree(tmp_path, {
        "a/tool.py": "import json\n\n\ndef dump(xs):\n"
                     "    return json.dumps(list(set(xs)))\n",
        "b/tool.py": "X = 1\n",
    })
    for roots in ([tmp_path / "a", tmp_path / "b"],
                  [tmp_path / "b", tmp_path / "a"]):
        result = lint_project(roots, select=["RPR010"])
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
    # One timed call per rule per file: a whole-program rule's project
    # analysis is booked to its first call, not counted as an extra one.
    assert {h.count for h in result.timings.values()} == {len(TIMING_TREE)}


def test_project_context_memo_is_per_run(tmp_path):
    graph = ProjectGraph()
    context = ProjectContext(graph)
    built = []
    first = context.memo("key", lambda: built.append(1) or "value")
    second = context.memo("key", lambda: built.append(2) or "other")
    assert first == second == "value"
    assert built == [1]
