"""``repro.lint`` — AST-based static analysis for repo invariants.

The trace pipeline's correctness rests on a handful of invariants that
runtime tests only probe pointwise: one canonical table schema, a
deterministic simulator, picklable executor callables, honest exception
handling, and named unit constants.  This package enforces them at zero
runtime cost with a small rule engine (see :mod:`repro.lint.core`) and
a catalogue of repo-specific rules (see :mod:`repro.lint.rules`), wired
into the ``borg-repro lint`` CLI subcommand and CI.

One driver, :func:`lint_project`, runs every rule.  It parses each
file once (:class:`repro.lint.graph.ModuleInfo`: AST plus import map)
and hands it to every selected rule (RPR001–RPR007); each rule reads
one file at a time.  Every run analyzes every file.

Properties that span modules or processes (hash-order independence,
serial-vs-pooled equality, fork-inherited state) are checked by running
the program, not by this pass: see DESIGN.md §8.

Quick use::

    from repro.lint import lint_project
    result = lint_project(["src"])            # all rules
    result = lint_project(["src"], select=["RPR002", "RPR003"])
    for violation in result.violations:
        print(violation.format())

Suppress a single finding with a line comment::

    window = horizon / 3600.0  # repro: noqa[RPR005] legacy figure script
"""

from repro.lint.core import (
    RULES,
    FileContext,
    Rule,
    Violation,
    parse_noqa,
    rule,
)
from repro.lint.reporting import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_VIOLATIONS,
    exit_code,
    render,
    render_json,
    render_text,
)
import repro.lint.rules  # noqa: F401,E402  (registers the built-in rules)
from repro.lint.project import (  # noqa: E402
    ProjectLintResult,
    iter_python_files,
    lint_project,
)

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_VIOLATIONS",
    "FileContext",
    "ProjectLintResult",
    "RULES",
    "Rule",
    "Violation",
    "exit_code",
    "iter_python_files",
    "lint_project",
    "parse_noqa",
    "render",
    "render_json",
    "render_text",
    "rule",
]
