"""Lint reporters: human text and machine JSON, plus exit codes.

Exit-code contract (mirrors the common linter convention):

* ``0`` — every file parsed and no rule fired;
* ``1`` — at least one violation (including suppressible ones);
* ``2`` — a file could not be analyzed (syntax error, ``RPR000``).

Project mode feeds the reporters a :class:`LintRunStats` so
``--statistics`` can show per-rule wall time (count / total / p50 / p95
over per-file check calls, from :mod:`repro.obs` timing histograms).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence

from repro.lint.core import RULES, Violation

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


@dataclass
class LintRunStats:
    """Run accounting the reporters show next to the findings."""

    #: rule id -> TimingHistogram summary() dict (count/sum/p50/p95/...).
    rule_timings: Dict[str, dict] = field(default_factory=dict)


def exit_code(violations: Sequence[Violation]) -> int:
    if any(v.rule == "RPR000" for v in violations):
        return EXIT_ERROR
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000.0:.1f}ms"


def render_text(violations: Sequence[Violation], files_checked: int,
                out: IO[str], statistics: bool = False,
                run_stats: Optional[LintRunStats] = None) -> None:
    """One ``path:line:col: RULE message`` line per violation + summary."""
    for violation in violations:
        print(violation.format(), file=out)
    if statistics and violations:
        counts = Counter(v.rule for v in violations)
        print(file=out)
        for rule_id, count in sorted(counts.items()):
            summary = RULES[rule_id].summary if rule_id in RULES \
                else "could not analyze file"
            print(f"{rule_id}  {count:4d}  {summary}", file=out)
    if statistics and run_stats is not None and run_stats.rule_timings:
        print(file=out)
        print("rule timings (over per-file checks):", file=out)
        for rule_id in sorted(run_stats.rule_timings):
            timing = run_stats.rule_timings[rule_id]
            if not timing.get("count"):
                continue
            print(f"  {rule_id}  calls={timing['count']:4d}  "
                  f"total={_format_seconds(timing['sum'])}  "
                  f"p50={_format_seconds(timing['p50'])}  "
                  f"p95={_format_seconds(timing['p95'])}", file=out)
    noun = "violation" if len(violations) == 1 else "violations"
    print(f"{len(violations)} {noun} in {files_checked} file(s) checked",
          file=out)


def render_json(violations: Sequence[Violation], files_checked: int,
                out: IO[str],
                run_stats: Optional[LintRunStats] = None) -> None:
    """A single JSON document: violations, per-rule counts, summary."""
    counts = Counter(v.rule for v in violations)
    document = {
        "files_checked": files_checked,
        "violation_count": len(violations),
        "rules": {rule_id: {"summary": cls.summary,
                            "violations": counts.get(rule_id, 0)}
                  for rule_id, cls in RULES.items()},
        "violations": [v.to_dict() for v in violations],
        "exit_code": exit_code(violations),
    }
    if run_stats is not None:
        document["rule_timings"] = {rule_id: run_stats.rule_timings[rule_id]
                                    for rule_id in
                                    sorted(run_stats.rule_timings)}
    json.dump(document, out, indent=2)
    out.write("\n")


def render(violations: List[Violation], files_checked: int, out: IO[str],
           format: str = "text", statistics: bool = False,
           run_stats: Optional[LintRunStats] = None) -> int:
    """Render in the requested format; returns the process exit code."""
    if format == "json":
        render_json(violations, files_checked, out, run_stats=run_stats)
    else:
        render_text(violations, files_checked, out, statistics=statistics,
                    run_stats=run_stats)
    return exit_code(violations)
