"""The whole-program lint driver: graph + flow rules over the full tree.

:func:`lint_project` is what ``borg-repro lint`` actually runs.  It
extends the per-file driver (:func:`repro.lint.core.lint_source`) with
everything the flow rules need:

1. read and parse every file into one
   :class:`~repro.lint.graph.ProjectGraph` (import and call resolution
   across modules);
2. let each selected rule warm its project-wide analysis once — the
   taint fixpoints behind RPR008/RPR010 and RPR009's fork-share verdict
   map, which is built from a fact summary of every parsed module;
3. run every selected rule over every file, timing each rule with
   :mod:`repro.obs` histograms.

Every run analyzes the whole tree from scratch, so a result depends
only on the files linted, never on an earlier run.

Suppression semantics are unchanged from per-file mode — and because
flow violations anchor at the *source* line (where taint enters the
file), a ``# repro: noqa[RPR008]`` is a judgement about one source: a
suppression on a sink line hides nothing, and two sources reaching the
same sink need two justifications.
"""

from __future__ import annotations

import ast
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

from repro import obs
from repro.lint.core import (
    FileContext,
    Violation,
    _selected_rules,
    _suppressed,
    iter_python_files,
    parse_noqa,
)
from repro.lint.flow import FlowAnalysis, FlowSpec
from repro.lint.graph import ProjectGraph, module_name
from repro.obs.timing import TimingHistogram


class ProjectContext:
    """What project-mode rules see via ``FileContext.project``."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        self._memo: Dict[str, object] = {}

    def flow(self, spec: FlowSpec) -> FlowAnalysis:
        """The (memoized) taint fixpoint for one flow spec."""
        key = f"flow.{spec.rule_id}"
        if key not in self._memo:
            self._memo[key] = FlowAnalysis(self.graph, spec)
        return self._memo[key]  # type: ignore[return-value]

    def memo(self, key: str, factory: Callable[[], object]) -> object:
        """Generic once-per-project memo for rule-owned analyses."""
        if key not in self._memo:
            self._memo[key] = factory()
        return self._memo[key]


@dataclass
class ProjectLintResult:
    """Everything the CLI reports: findings plus per-rule timings."""

    violations: List[Violation]
    files_total: int
    #: rule id -> wall-time histogram over per-file check calls.
    timings: Dict[str, TimingHistogram] = field(default_factory=dict)


def _module_names(path_strs: Sequence[str]) -> Dict[str, str]:
    """path -> dotted module name, disambiguated on collision.

    Two lint-set files can resolve to the same dotted name (same-stem
    scripts in different non-package directories, e.g. ``tests/x.py``
    vs ``benchmarks/x.py``).  The first occurrence keeps the plain name
    (and stays import-resolvable); later ones get a path-derived unique
    suffix so per-module bookkeeping (graph entries, fact summaries)
    never silently collides.  The ``@`` can never appear in a real
    dotted name, so no import resolves to a disambiguated module —
    deliberately conservative.
    """
    out: Dict[str, str] = {}
    taken: Set[str] = set()
    for s in path_strs:
        name = module_name(Path(s))
        if name in taken:
            name = f"{name}@{hashlib.sha256(s.encode('utf-8')).hexdigest()[:8]}"
        taken.add(name)
        out[s] = name
    return out


def lint_project(paths: Iterable[Union[str, Path]],
                 select: Optional[Sequence[str]] = None) -> ProjectLintResult:
    """Lint ``paths`` with every selected rule, whole-program rules
    included, analyzing every file."""
    checkers = _selected_rules(select)
    rule_ids = [type(c).id for c in checkers]

    path_strs = [str(p) for p in iter_python_files(paths)]
    sources = {s: Path(s).read_text(encoding="utf-8") for s in path_strs}
    modnames = _module_names(path_strs)

    graph = ProjectGraph()
    for s in path_strs:
        # Declared even when unparsable, so imports of it still resolve.
        graph.declare_module(modnames[s])
        graph.add_source(Path(s), sources[s], name=modnames[s])
    context = ProjectContext(graph)

    timings: Dict[str, TimingHistogram] = {tid: TimingHistogram()
                                           for tid in rule_ids}

    def timed(rule_id: str, fn: Callable[[], object]) -> object:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        timings[rule_id].observe(elapsed)
        obs.observe(f"lint.rule.{rule_id}", elapsed)
        return result

    for checker in checkers:
        warm = getattr(checker, "warm", None)
        if warm is not None:
            timed(type(checker).id, lambda w=warm: w(context))

    violations: List[Violation] = []
    with obs.span("lint.project"):
        for s in path_strs:
            violations.extend(_analyze_file(s, sources[s], context, checkers,
                                            timed))
    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    obs.inc("lint.files_analyzed", len(path_strs))
    return ProjectLintResult(violations=violations,
                             files_total=len(path_strs), timings=timings)


def _analyze_file(path_str: str, source: str, context: ProjectContext,
                  checkers, timed) -> List[Violation]:
    path = Path(path_str)
    info = context.graph.module_for_path(path)
    tree = info.tree if info is not None else None
    if tree is None:
        try:
            tree = ast.parse(source, filename=path_str)
        except SyntaxError as exc:
            return [Violation("RPR000", path_str, exc.lineno or 1,
                              (exc.offset or 0) or 1,
                              f"syntax error: {exc.msg}")]
    file_context = FileContext(path=path, source=source, tree=tree,
                               noqa=parse_noqa(source), project=context)
    out: List[Violation] = []
    for checker in checkers:
        rule_id = type(checker).id
        found = timed(rule_id,
                      lambda c=checker: list(c.check(file_context)))
        out.extend(v for v in found
                   if not _suppressed(v, file_context.noqa))
    out.sort(key=lambda v: (v.line, v.column, v.rule))
    return out
