"""``repro.lint`` — AST-based static analysis for repo invariants.

The trace pipeline's correctness rests on a handful of invariants that
runtime tests only probe pointwise: one canonical table schema, a
deterministic simulator, picklable executor callables, honest exception
handling, and named unit constants.  This package enforces them at zero
runtime cost with a small rule engine (see :mod:`repro.lint.core`) and
a catalogue of repo-specific rules (see :mod:`repro.lint.rules`), wired
into the ``borg-repro lint`` CLI subcommand and CI.

Two drivers share the rule registry.  The per-file driver
(:func:`lint_paths`) parses each file in isolation and runs the
syntactic rules (RPR001–RPR007).  The **project** driver
(:func:`lint_project`) additionally builds an import/call graph over
the whole tree (:mod:`repro.lint.graph`), runs the taint engine
(:mod:`repro.lint.flow`) behind the whole-program rules
(RPR008–RPR010).  Every run analyzes every file.

Quick use::

    from repro.lint import lint_paths, lint_project
    violations = lint_paths(["src"])          # per-file rules only
    result = lint_project(["src"])            # all rules
    result = lint_project(["src"], select=["RPR008"])

Suppress a single finding with a line comment::

    window = horizon / 3600.0  # repro: noqa[RPR005] legacy figure script

Flow-rule violations anchor at the line where the taint *enters* the
file (the source), never the sink, so a ``noqa`` is always a judgement
about exactly one source.
"""

from repro.lint.core import (
    RULES,
    FileContext,
    Rule,
    Violation,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
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
    ProjectContext,
    ProjectLintResult,
    lint_project,
)

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_VIOLATIONS",
    "FileContext",
    "ProjectContext",
    "ProjectLintResult",
    "RULES",
    "Rule",
    "Violation",
    "exit_code",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "parse_noqa",
    "render",
    "render_json",
    "render_text",
    "rule",
]
