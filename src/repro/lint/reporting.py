"""Lint reporters: human text and machine JSON, plus exit codes.

Exit-code contract (mirrors the common linter convention):

* ``0`` — every file parsed and no rule fired;
* ``1`` — at least one violation (including suppressible ones);
* ``2`` — a file could not be analyzed (syntax error, ``RPR000``).

The driver's per-rule timing histograms
(:attr:`repro.lint.project.ProjectLintResult.timings`) let
``--statistics`` show per-rule wall time: count / total / p50 / p95
over that rule's check calls, one call per file checked.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import IO, Dict, List, Mapping, Optional, Sequence

from repro.lint.core import RULES, Violation
from repro.obs.timing import TimingHistogram

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def exit_code(violations: Sequence[Violation]) -> int:
    if any(v.rule == "RPR000" for v in violations):
        return EXIT_ERROR
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000.0:.1f}ms"


def _timing_summaries(timings: Mapping[str, TimingHistogram]
                      ) -> Dict[str, Dict[str, float]]:
    """rule id -> histogram summary, sorted, for rules that ran."""
    return {rule_id: timings[rule_id].summary()
            for rule_id in sorted(timings) if timings[rule_id].count}


def render_text(violations: Sequence[Violation], files_checked: int,
                out: IO[str], statistics: bool = False,
                timings: Optional[Mapping[str, TimingHistogram]] = None
                ) -> None:
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
    summaries = _timing_summaries(timings or {}) if statistics else {}
    if summaries:
        print(file=out)
        print("rule timings (over per-file checks):", file=out)
        for rule_id, timing in summaries.items():
            print(f"  {rule_id}  calls={timing['count']:4d}  "
                  f"total={_format_seconds(timing['sum'])}  "
                  f"p50={_format_seconds(timing['p50'])}  "
                  f"p95={_format_seconds(timing['p95'])}", file=out)
    noun = "violation" if len(violations) == 1 else "violations"
    print(f"{len(violations)} {noun} in {files_checked} file(s) checked",
          file=out)


def render_json(violations: Sequence[Violation], files_checked: int,
                out: IO[str],
                timings: Optional[Mapping[str, TimingHistogram]] = None
                ) -> None:
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
    if timings is not None:
        document["rule_timings"] = _timing_summaries(timings)
    json.dump(document, out, indent=2)
    out.write("\n")


def render(violations: List[Violation], files_checked: int, out: IO[str],
           format: str = "text", statistics: bool = False,
           timings: Optional[Mapping[str, TimingHistogram]] = None) -> int:
    """Render in the requested format; returns the process exit code."""
    if format == "json":
        render_json(violations, files_checked, out, timings=timings)
    else:
        render_text(violations, files_checked, out, statistics=statistics,
                    timings=timings)
    return exit_code(violations)
