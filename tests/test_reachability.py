"""Wire in or delete: every ``src/`` definition is reached from an entry point.

The check parses ``src/`` with :mod:`repro.lint.graph` (nothing of the
project is imported) and walks outward from the program's entry points:

* the ``borg-repro`` console script (``repro.cli:main``);
* every file in ``examples/``, ``perfbench/`` and ``benchmarks/``;
* the import-time statements of each ``src/`` module: module-level code,
  class bodies, decorators and default values.  Imports and ``__all__``
  are not uses: a re-export reaches nothing.

A function, class or method is *reached* when reached code names it, as
a ``Name``, an ``Attribute`` or an identifier-like string constant
(``getattr(obj, "name")``, ``set_defaults(func=...)`` tables).  Matching
is by simple name, because the graph does not resolve ``obj.method()``
calls; the walk over-approximates, so it can miss dead code but never
flags live code.  A method counts only once its class is reached; the
dunder and ``visit_*`` methods of a reached class are reached through
the protocols that call them.  A bare project decorator (``@rule``)
hands its target to a registry at import time, so the target is
reached; a decorator factory (``@obs.traced("...")``) only wraps it,
and callers still have to name it.

State gets the same check.  Every attribute a ``src/`` class assigns
(``self.x = ...`` in a method, a dataclass field, a ``__slots__``
entry) must be *read* somewhere in ``src/``, ``examples/``,
``perfbench/`` or ``benchmarks/``: as an attribute load (``+=``
included), a ``Name`` or an identifier-like string constant, again by
simple name.  Attribute stores, keyword arguments and the field
declarations themselves are writes, not reads; an attribute only tests
read is state the program keeps for nothing.

Code that only tests call is dead unless it is one of the few kinds
the :data:`ALLOWED` list admits: a reference implementation a test
compares the kernel against, a safety check, test-support API, or an
oracle a ROADMAP item names.  Everything else is wired in or deleted.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

import pytest

from repro.lint.graph import ModuleInfo, ProjectGraph

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Directories whose every file is an entry point.
ROOT_DIRS = ("examples", "perfbench", "benchmarks")

#: Unreached definitions kept on purpose, one line of reason each.
ALLOWED: Dict[str, str] = {
    # reference implementations the kernels are tested against
    "repro.sim.autopilot:limit_trajectory":
        "reference: per-step Autopilot limit oracle for tests/test_usage_oracle.py",
    "repro.sim.autopilot:AutopilotMode":
        "reference: the mode argument of limit_trajectory",
    "repro.sim.scheduler:PlacementPolicy._admissible":
        "reference: scalar admission test the FleetState kernel must match",
    "repro.sim.scheduler:PlacementPolicy._score":
        "reference: scalar placement score the FleetState kernel must match",
    # safety checks
    "repro.sim.fleet:FleetState.check_consistency":
        "safety: verifies FleetState's array and list forms hold the same state",
    # test-support API: lint harness entry points the rule tests drive
    "repro.lint.core:lint_source":
        "test support: per-file lint of a source string (rule fixtures)",
    "repro.lint.core:lint_file":
        "test support: per-file lint of one path (rule fixtures)",
    "repro.lint.core:lint_paths":
        "test support: per-file lint of a path list (rule fixtures)",
    # test-support API: obs helpers that compare or reset runs
    "repro.obs:reset":
        "test support: fresh global registry between tests",
    "repro.obs.registry:MetricsRegistry.reset":
        "test support: the registry half of repro.obs.reset",
    "repro.obs.registry:current_span_node":
        "test support: inspect the open span in span-nesting tests",
    "repro.obs.report:snapshot_report":
        "test support: build a report dict without writing it",
    "repro.obs.report:load_report":
        "test support: read a written report back for comparison",
    "repro.obs.recorder:read_frames":
        "test support: read a frames file back (tests and CI frame diff)",
    "repro.obs.recorder:frames_fingerprint":
        "test support: serial vs pooled frame comparison (tests and CI)",
    "repro.obs.recorder:strip_volatile":
        "test support: drop wall-clock fields before comparing frames",
    "repro.obs.snapshot:Snapshot.span_structure":
        "test support: span-tree shape for serial vs pooled comparison",
    "repro.obs.spans:SpanNode.structure":
        "test support: the per-node half of Snapshot.span_structure",
    # test-support API: corrupt-data tests
    "repro.store.format:read_chunk_header":
        "test support: header-only read the corrupt-chunk tests target",
    # public result fields: library callers read them, the program does not
    "repro.stats.ccdf:Ccdf.n_samples":
        "public result: sample count behind an empirical CCDF",
    "repro.queueing.partition:QueueOutcome.median_wait":
        "public result: median queueing wait of one partition",
    "repro.queueing.partition:IsolationExperiment.hog_threshold":
        "public result: job size above which a job counts as a hog",
    "repro.analysis.constraints:ConstraintReport.constraints_by_platform":
        "public result: constrained job count per platform (a golden pins it)",
    "repro.sim.entities:Collection.enable_time":
        "test support: the time scheduling-delay tests measure from",
    # oracles named by ROADMAP items 2 and 6
    "repro.queueing.mg1:mg1_mean_queueing_delay":
        "oracle: Pollaczek-Khinchine mean delay for the BEB queue test (item 6)",
    "repro.stats.pareto:fit_pareto_mle":
        "oracle: Pareto alpha recovery for the Table 2 claim (items 2 and 6)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Key = str  # "module:qualname"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def mentions(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name, attribute and identifier-like string under ``nodes``."""
    out: Set[str] = set()
    stack: List[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                or _is_all_assignment(node):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _IDENTIFIER.match(node.value):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def import_time(body: Iterable[ast.stmt]) -> List[ast.AST]:
    """The parts of a module or class body that run when it is imported."""
    out: List[ast.AST] = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += stmt.decorator_list + stmt.args.defaults
            out += [d for d in stmt.args.kw_defaults if d is not None]
        elif isinstance(stmt, ast.ClassDef):
            out += stmt.decorator_list + stmt.bases
            out += [k.value for k in stmt.keywords]
            out += import_time(stmt.body)
        else:
            out.append(stmt)
    return out


def _registered(node: ast.AST, info: ModuleInfo, graph: ProjectGraph) -> bool:
    """Whether a bare project decorator (``@rule``) registers ``node``."""
    return any(not isinstance(d, ast.Call) and graph.resolve_call(d, info)
               for d in node.decorator_list)


def walk(graph: ProjectGraph, roots: Iterable[ast.AST],
         entry_points: Iterable[Key] = ()
         ) -> Tuple[Dict[Key, Tuple[ModuleInfo, ast.AST]], Set[Key]]:
    """``(definitions, reached)`` over ``graph`` from ``roots``."""
    defs: Dict[Key, Tuple[ModuleInfo, ast.AST]] = {}
    by_name: Dict[str, List[Key]] = {}
    names: List[str] = list(mentions(roots))
    keys: List[Key] = list(entry_points)
    for info in graph.modules.values():
        names.extend(mentions(import_time(info.tree.body)))
        for qual, node in list(info.classes.items()) + list(info.functions.items()):
            key = f"{info.name}:{qual}"
            defs[key] = (info, node)
            by_name.setdefault(qual.rpartition(".")[2], []).append(key)
            if "." not in qual and _registered(node, info, graph):
                keys.append(key)

    seen: Set[str] = set()
    reached: Set[Key] = set()

    def method_live(qual: str) -> bool:
        method = qual.rpartition(".")[2]
        return method in seen or _is_dunder(method) \
            or method.startswith("visit_")

    while names or keys:
        if keys:
            key = keys.pop()
            if key in reached:
                continue
            reached.add(key)
            info, node = defs[key]
            if isinstance(node, ast.ClassDef):
                # Its import-time parts are roots already; what reaching
                # the class adds is that its methods can now be called.
                prefix = f"{node.name}."
                keys.extend(f"{info.name}:{q}" for q in info.functions
                            if q.startswith(prefix) and method_live(q))
            else:
                names.extend(mentions([node]))
            continue
        name = names.pop()
        if name in seen:
            continue
        seen.add(name)
        for key in by_name.get(name, ()):
            module, _, qual = key.partition(":")
            owner = qual.rpartition(".")[0]
            if not owner or f"{module}:{owner}" in reached:
                keys.append(key)
    return defs, reached


def _is_slots_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def assigned_attributes(graph: ProjectGraph) -> Dict[Key, ast.AST]:
    """``module:Class.attr`` -> where it is assigned, for every class."""
    out: Dict[Key, ast.AST] = {}
    for info in graph.modules.values():
        for qual, cls in info.classes.items():
            prefix = f"{info.name}:{qual}."
            dataclass = _is_dataclass(cls)
            for stmt in cls.body:
                if dataclass and isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    out.setdefault(prefix + stmt.target.id, stmt)
                elif _is_slots_assignment(stmt):
                    for node in ast.walk(stmt.value):
                        if isinstance(node, ast.Constant) \
                                and isinstance(node.value, str):
                            out.setdefault(prefix + node.value, stmt)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and stmt.args.args:
                    self_name = stmt.args.args[0].arg
                    for node in ast.walk(stmt):
                        if isinstance(node, ast.Attribute) \
                                and isinstance(node.ctx, ast.Store) \
                                and isinstance(node.value, ast.Name) \
                                and node.value.id == self_name:
                            out.setdefault(prefix + node.attr, node)
    return out


def reads(trees: Iterable[ast.AST]) -> Set[str]:
    """Every loaded attribute, name and identifier-like string.

    A ``+=`` loads its target, so it is a read; a class-body field
    declaration is not (else no dataclass field could ever be unread).
    """
    out: Set[str] = set()
    stack: List[ast.AST] = list(trees)
    while stack:
        node = stack.pop()
        if _is_slots_assignment(node) or _is_all_assignment(node):
            continue
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    stack.extend(n for n in (stmt.annotation, stmt.value) if n)
                else:
                    stack.append(stmt)
            stack.extend(node.decorator_list + node.bases)
            continue
        if isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute):
            out.add(node.target.attr)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _IDENTIFIER.match(node.value):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread(attributes: Dict[Key, ast.AST], read: Set[str]) -> List[Key]:
    """The assigned attributes whose simple name nothing reads."""
    return sorted(k for k in attributes if k.rpartition(".")[2] not in read)


def _files_under(root: Path) -> List[Path]:
    return sorted(root.rglob("*.py"))


def console_scripts() -> List[Key]:
    """``module:function`` of every ``[project.scripts]`` entry."""
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"([\w.]+:\w+)"', section)


@pytest.fixture(scope="module")
def sources():
    graph = ProjectGraph.build((p, p.read_text(encoding="utf-8"))
                               for p in _files_under(SRC))
    roots = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for d in ROOT_DIRS for p in _files_under(REPO / d)]
    return graph, roots


@pytest.fixture(scope="module")
def project(sources):
    graph, roots = sources
    scripts = console_scripts()
    assert scripts, "pyproject.toml declares no [project.scripts]"
    return walk(graph, roots, scripts)


@pytest.fixture(scope="module")
def state(sources):
    """``(assigned attributes, simple names read)`` over the program."""
    graph, roots = sources
    trees = [info.tree for info in graph.modules.values()] + roots
    return assigned_attributes(graph), reads(trees)


def _span(node: ast.AST) -> int:
    return node.end_lineno - node.lineno + 1


def test_every_src_definition_is_reached_or_allowed(project):
    defs, reached = project
    dead = sorted(set(defs) - reached - set(ALLOWED))
    assert not dead, (
        f"{len(dead)} src/ definition(s), "
        f"{sum(_span(defs[k][1]) for k in dead)} lines, that no entry point "
        "reaches: wire each in or delete it (or, for a reference, safety "
        "check, test-support API or oracle, add it to ALLOWED with a reason)"
        ":\n  " + "\n  ".join(f"{k} ({_span(defs[k][1])} lines)" for k in dead))


def test_every_assigned_attribute_is_read_or_allowed(state):
    attributes, read = state
    dead = [k for k in unread(attributes, read) if k not in ALLOWED]
    assert not dead, (
        f"{len(dead)} attribute(s) a src/ class assigns but nothing in "
        "src/, examples/, perfbench/ or benchmarks/ reads: wire each in or "
        "delete it (or add it to ALLOWED with a reason):\n  "
        + "\n  ".join(f"{k} (line {attributes[k].lineno})" for k in dead))


def test_allow_list_is_not_stale(project, state):
    defs, reached = project
    attributes, read = state
    missing = sorted(k for k in ALLOWED
                     if k not in defs and k not in attributes)
    live = sorted(k for k in ALLOWED if k in reached
                  or (k in attributes and k not in unread({k: None}, read)))
    assert not missing, f"ALLOWED names definitions that no longer exist: {missing}"
    assert not live, f"ALLOWED names definitions an entry point now reaches: {live}"
    for key, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, key


# -- the walk's own rules, on a synthetic project ----------------------------

_FIXTURE = {
    "pkg/__init__.py": """
        from pkg.mod import exported
        __all__ = ["exported", "listed_only"]
    """,
    "pkg/mod.py": """
        REGISTRY = {}

        def rule(cls):
            REGISTRY[cls.__name__] = cls
            return cls

        def exported():
            return 1

        def listed_only():
            return 2

        def called():
            return helper()

        def helper():
            return 3

        def by_string():
            return 4

        def dead():
            return called()

        @rule
        class Registered:
            def __init__(self):
                self.x = 1

            def check(self):
                return 5

            def unnamed(self):
                return 6

        class Visitor:
            def visit_Name(self, node):
                return node

            def _unused(self):
                return 7

        class Orphan:
            def check(self):
                return 8
    """,
}

_ROOT = """
    import pkg
    from pkg.mod import called, Visitor
    called()
    Visitor()
    getattr(pkg.mod, "by_string")()
    for cls in pkg.mod.REGISTRY.values():
        cls().check()
"""


def test_walk_rules_on_a_synthetic_project(tmp_path):
    for rel, source in _FIXTURE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    graph = ProjectGraph.build((p, p.read_text(encoding="utf-8"))
                               for p in sorted(tmp_path.rglob("*.py")))
    defs, reached = walk(graph, [ast.parse(textwrap.dedent(_ROOT))])
    assert sorted(set(defs) - reached) == [
        "pkg.mod:Orphan",             # a method name alone needs its class
        "pkg.mod:Orphan.check",
        "pkg.mod:Registered.unnamed",  # reached class, method never named
        "pkg.mod:Visitor._unused",
        "pkg.mod:dead",                # calls live code, but nothing calls it
        "pkg.mod:exported",            # a re-export is not a use
        "pkg.mod:listed_only",         # neither is __all__
    ]


_STATE_FIXTURE = """
    from dataclasses import dataclass

    @dataclass
    class Record:
        shown: int
        hidden: int

    class Box:
        __slots__ = ("kept", "dropped")

        def __init__(self, kept):
            self.kept = kept
            self.dropped = None
            self.counter = 0
            self.by_string = 1
            self.pair_a, self.pair_b = 2, 3

        def bump(self):
            self.counter += 1

    @dataclass
    class Bare:
        value: int = 0

    def use(box, record):
        print(box.kept, record.shown, getattr(box, "by_string"), pair_b)
        Record(shown=1, hidden=2)
"""


def test_attribute_rules_on_a_synthetic_module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(_STATE_FIXTURE), encoding="utf-8")
    graph = ProjectGraph.build([(path, path.read_text(encoding="utf-8"))])
    attributes = assigned_attributes(graph)
    assert sorted(k.partition(":")[2] for k in attributes) == [
        "Bare.value", "Box.by_string", "Box.counter", "Box.dropped",
        "Box.kept", "Box.pair_a", "Box.pair_b", "Record.hidden",
        "Record.shown"]
    read = reads(info.tree for info in graph.modules.values())
    assert [k.partition(":")[2] for k in unread(attributes, read)] == [
        "Bare.value",     # its own declaration is not a read
        "Box.dropped",    # a __slots__ entry and a store are not reads
        "Box.pair_a",     # tuple targets are stores
        "Record.hidden",  # a keyword argument is a write
    ]                     # Box.counter: += loads it
