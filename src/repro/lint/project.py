"""The lint driver: every rule, per-file and whole-program, over one tree.

:func:`lint_project` is what ``borg-repro lint`` runs, and the only
driver there is:

1. read and parse every file once into a
   :class:`~repro.lint.graph.ProjectGraph` (import and call resolution
   across modules); a file that does not parse is reported as
   ``RPR000`` and checked by no rule;
2. run every selected rule over every parsed file, timing each call.
   A whole-program rule builds its project-wide analysis (the taint
   fixpoints behind RPR008/RPR010, RPR009's fork-share verdict map)
   on its first call, memoized in the :class:`ProjectContext`, so that
   cost is booked to the rule it belongs to.

Every run analyzes the whole tree from scratch, so a result depends
only on the files linted, never on an earlier run.

Flow violations anchor at the *source* line (where taint enters the
file), so a ``# repro: noqa[RPR008]`` is a judgement about one source:
a suppression on a sink line hides nothing, and two sources reaching
the same sink need two justifications.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, TypeVar, Union)

from repro.lint.core import RULES, FileContext, Rule, Violation, parse_noqa
from repro.lint.flow import FlowAnalysis, FlowSpec
from repro.lint.graph import ModuleInfo, ProjectGraph, module_name
from repro.obs.timing import TimingHistogram

T = TypeVar("T")


class ProjectContext:
    """What every rule sees via ``FileContext.project``."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        self._memo: Dict[str, object] = {}

    def flow(self, spec: FlowSpec) -> FlowAnalysis:
        """The (memoized) taint fixpoint for one flow spec."""
        return self.memo(f"flow.{spec.rule_id}",
                         lambda: FlowAnalysis(self.graph, spec))

    def memo(self, key: str, factory: Callable[[], T]) -> T:
        """Generic once-per-project memo for rule-owned analyses."""
        if key not in self._memo:
            self._memo[key] = factory()
        return self._memo[key]  # type: ignore[return-value]


@dataclass
class ProjectLintResult:
    """Everything the CLI reports: findings plus per-rule timings."""

    violations: List[Violation]
    files_total: int
    #: rule id -> wall-time histogram, one observation per file checked.
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


def iter_python_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files.

    A file named twice (``lint a.py a.py``, or a directory plus a file
    inside it) is yielded once, at its first occurrence: files are told
    apart by resolved path, so each is checked and counted once.
    """
    seen: Set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        found = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for path in found:
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path


def _selected_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    if select is None:
        return [cls() for cls in RULES.values()]
    unknown = sorted(set(select) - set(RULES))
    if unknown:
        raise ValueError(f"unknown rule ids {unknown}; known: {sorted(RULES)}")
    return [RULES[rule_id]() for rule_id in select]


def lint_project(paths: Iterable[Union[str, Path]],
                 select: Optional[Sequence[str]] = None) -> ProjectLintResult:
    """Lint ``paths`` with every selected rule, whole-program rules
    included, analyzing every file."""
    checkers = _selected_rules(select)
    path_strs = [str(p) for p in iter_python_files(paths)]
    modnames = _module_names(path_strs)

    violations: List[Violation] = []
    graph = ProjectGraph()
    for s in path_strs:
        # Declared even when unparsable, so imports of it still resolve.
        graph.declare_module(modnames[s])
        try:
            graph.add_source(Path(s), Path(s).read_text(encoding="utf-8"),
                             name=modnames[s])
        except SyntaxError as exc:
            violations.append(Violation("RPR000", s, exc.lineno or 1,
                                        exc.offset or 1,
                                        f"syntax error: {exc.msg}"))
    context = ProjectContext(graph)

    timings = {type(c).id: TimingHistogram() for c in checkers}
    for s in path_strs:
        info = graph.module_for_path(Path(s))
        if info is not None:  # None: a syntax error, reported above
            violations.extend(_check_file(info, context, checkers, timings))
    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return ProjectLintResult(violations=violations,
                             files_total=len(path_strs), timings=timings)


def _check_file(info: ModuleInfo, context: ProjectContext,
                checkers: List[Rule],
                timings: Dict[str, TimingHistogram]) -> List[Violation]:
    file_context = FileContext(module=info, project=context,
                               noqa=parse_noqa(info.source))
    out: List[Violation] = []
    for checker in checkers:
        start = time.perf_counter()
        found = list(checker.check(file_context))
        timings[checker.id].observe(time.perf_counter() - start)
        out.extend(v for v in found if not _suppressed(v, file_context.noqa))
    return out


def _suppressed(violation: Violation, noqa: Dict[int, Set[str]]) -> bool:
    ids = noqa.get(violation.line)
    return bool(ids) and ("*" in ids or violation.rule in ids)
