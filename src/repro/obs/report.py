"""Run reports: the machine-readable (and human-renderable) obs export.

``--obs-out report.json`` on the CLI writes :func:`run_report` of the
process's registry at exit; ``borg-repro stats report.json`` renders it
back as text.  The JSON groups metrics into per-subsystem *sections*
keyed by the metric name's first dotted component, and the ``sim``,
``store`` and ``analysis`` sections are always present (empty when a
command never touched that layer) so downstream trajectory tooling can
index them unconditionally.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Union

from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.snapshot import Snapshot
from repro.obs.timing import TimingHistogram

#: The report schema identifier (bump on incompatible layout changes).
SCHEMA = "repro.obs/1"

#: Sections that are always present in a report, even when empty.
CORE_SECTIONS = ("sim", "store", "analysis")


def _section_of(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "other"


def _empty_section() -> dict:
    return {"counters": {}, "gauges": {}, "timers": {}}


def run_report(command: str = "", meta: Optional[dict] = None,
               registry: Optional[MetricsRegistry] = None,
               profile: Optional[dict] = None) -> dict:
    """The full run report of ``registry`` (default: the current one).

    ``profile`` is an optional sampling-profiler payload
    (:meth:`repro.obs.profiler.SamplingProfiler.to_dict`); when given it
    is embedded under the report's ``"profile"`` key and rendered as a
    hot-function table by ``borg-repro stats``.
    """
    snapshot = (registry or get_registry()).snapshot()
    sections: Dict[str, dict] = {name: _empty_section()
                                 for name in CORE_SECTIONS}
    for name, value in sorted(snapshot.counters.items()):
        sections.setdefault(_section_of(name), _empty_section())[
            "counters"][name] = value
    for name, value in sorted(snapshot.gauges.items()):
        sections.setdefault(_section_of(name), _empty_section())[
            "gauges"][name] = value
    for name, data in sorted(snapshot.timers.items()):
        summary = TimingHistogram.from_dict(data).summary()
        sections.setdefault(_section_of(name), _empty_section())[
            "timers"][name] = summary
    report = {
        "schema": SCHEMA,
        "command": command,
        "meta": dict(meta or {}),
        "sections": sections,
        "spans": snapshot.spans,
    }
    if profile is not None:
        report["profile"] = dict(profile)
    return report


def write_report(path: Union[str, os.PathLike], command: str = "",
                 meta: Optional[dict] = None,
                 registry: Optional[MetricsRegistry] = None,
                 profile: Optional[dict] = None) -> dict:
    """Write :func:`run_report` to ``path`` as stable, diffable JSON."""
    report = run_report(command=command, meta=meta, registry=registry,
                        profile=profile)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return report


def load_report(path: Union[str, os.PathLike]) -> dict:
    """Read a report written by :func:`write_report`, checking the schema."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: not a repro.obs run report "
            f"(schema {schema!r}, expected {SCHEMA!r})")
    return report


# -- text rendering -----------------------------------------------------------

def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}us"


def _render_span(lines: List[str], node: dict, depth: int) -> None:
    label = "  " * depth + node["name"]
    lines.append(f"  {label:<44s} count={node['count']:<8d} "
                 f"total={_fmt_seconds(node['total_s'])}")
    for child in node.get("children", []):
        _render_span(lines, child, depth + 1)


def render_report(report: dict) -> str:
    """Human-readable rendering of a run report (the ``stats`` output)."""
    lines: List[str] = []
    command = report.get("command") or "-"
    lines.append(f"repro.obs run report  (schema {report['schema']}, "
                 f"command: {command})")
    meta = report.get("meta") or {}
    if meta:
        rendered = "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"meta: {rendered}")

    profile = report.get("profile") or {}
    if profile:
        lines.append("")
        lines.append(f"profile ({profile.get('samples', 0)} samples, "
                     f"interval {profile.get('interval_s', 0.0):g}s):")
        lines.append(f"  {'self%':>6s} {'cum%':>6s} {'self':>7s} "
                     f"{'cum':>7s}  function")
        for row in profile.get("hot", [])[:20]:
            lines.append(f"  {row.get('self_pct', 0.0):>6.1f} "
                         f"{row.get('cum_pct', 0.0):>6.1f} "
                         f"{row.get('self', 0):>7d} {row.get('cum', 0):>7d}"
                         f"  {row.get('func', '?')}")
        if not profile.get("hot"):
            lines.append("  (no samples collected)")

    spans = report.get("spans") or {}
    children = spans.get("children", [])
    lines.append("")
    lines.append("spans (wall time per tree):")
    if children:
        for child in children:
            _render_span(lines, child, 0)
    else:
        lines.append("  (none recorded)")

    for section_name, section in report.get("sections", {}).items():
        counters = section.get("counters", {})
        gauges = section.get("gauges", {})
        timers = section.get("timers", {})
        if not (counters or gauges or timers):
            continue
        lines.append("")
        lines.append(f"[{section_name}]")
        for name, value in counters.items():
            lines.append(f"  {name:<44s} {value}")
        for name, value in gauges.items():
            lines.append(f"  {name:<44s} {value:g} (gauge)")
        for name, summary in timers.items():
            lines.append(
                f"  {name:<44s} n={summary['count']:<7d} "
                f"p50={_fmt_seconds(summary['p50'])} "
                f"p95={_fmt_seconds(summary['p95'])} "
                f"p99={_fmt_seconds(summary['p99'])} "
                f"sum={_fmt_seconds(summary['sum'])}")
    return "\n".join(lines) + "\n"


def snapshot_report(snapshot: Snapshot, command: str = "") -> dict:
    """A report built from an already-taken snapshot (tests, tooling)."""
    registry = MetricsRegistry()
    registry.merge_snapshot(snapshot)
    return run_report(command=command, registry=registry)
