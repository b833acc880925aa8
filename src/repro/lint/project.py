"""The lint driver: every selected rule over every file of one tree.

:func:`lint_project` is what ``borg-repro lint`` runs, and the only
driver there is:

1. read and parse every file once into a
   :class:`~repro.lint.graph.ModuleInfo` (AST plus import map); a file
   that does not parse is reported as ``RPR000`` and checked by no rule;
2. run every selected rule over every parsed file, timing each call.

Every rule reads one file at a time, so a result depends only on the
files linted, never on an earlier run or on the other files named.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.lint.core import RULES, FileContext, Rule, Violation, parse_noqa
from repro.lint.graph import ModuleInfo, module_name
from repro.obs.timing import TimingHistogram
from repro.util.errors import ReproError


@dataclass
class ProjectLintResult:
    """Everything the CLI reports: findings plus per-rule timings."""

    violations: List[Violation]
    files_total: int
    #: rule id -> wall-time histogram, one observation per file checked.
    timings: Dict[str, TimingHistogram] = field(default_factory=dict)


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
        raise ReproError(f"unknown rule ids {unknown}; known: {sorted(RULES)}")
    return [RULES[rule_id]() for rule_id in select]


def lint_project(paths: Iterable[Union[str, Path]],
                 select: Optional[Sequence[str]] = None) -> ProjectLintResult:
    """Lint ``paths`` with every selected rule, analyzing every file."""
    checkers = _selected_rules(select)
    files = list(iter_python_files(paths))
    timings = {type(c).id: TimingHistogram() for c in checkers}
    violations: List[Violation] = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ReproError(f"{path}: not UTF-8 source ({exc})") from None
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            violations.append(Violation("RPR000", str(path), exc.lineno or 1,
                                        exc.offset or 1,
                                        f"syntax error: {exc.msg}"))
            continue
        info = ModuleInfo(module_name(path), path, source, tree)
        violations.extend(_check_file(info, checkers, timings))
    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return ProjectLintResult(violations=violations, files_total=len(files),
                             timings=timings)


def _check_file(info: ModuleInfo, checkers: List[Rule],
                timings: Dict[str, TimingHistogram]) -> List[Violation]:
    file_context = FileContext(module=info, noqa=parse_noqa(info.source))
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
