"""The perf gate: a change's benchmark runs against its parent's.

``borg-repro bench compare PARENT_DIR CHANGE_DIR`` reads ``perfbench``
results of two checkouts run interleaved on one machine.  Each directory
holds ``<workload>.jsonl``: per run, the last line (the result JSON) of
``python3 perfbench/run.py --trace 0``.  Workloads, end-to-end metrics,
their ``better`` directions and bounds come from this checkout's
``BENCHMARK.json``; none of them is an option.  Per workload and metric
the change *regresses* when its median is worse than the parent's by
more than the bound.  When the parent's own spread, (Q3 − Q1) / median,
is wider than the bound the metric is *unresolved*, reported and not
failed, unless every change run reads worse (a regression) or better
(ok) than every parent run.  A workload also fails when the change's
total ``failed / attempted`` is higher than the parent's (DESIGN.md §11).

Exit-code contract (the CI gate): 0 pass, 1 regression, 2 bad input.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import List, NamedTuple, Sequence, Union

from repro.util.errors import ReproError

#: The benchmark contract of this checkout (``src/repro/obs`` -> root).
CONTRACT = Path(__file__).resolve().parents[3] / "BENCHMARK.json"

#: The row name of a workload's failure-share verdict.
FAILED = "failed/attempted"


class BenchDataError(ReproError):
    """A contract or result file the gate cannot read."""


class Metric(NamedTuple):
    name: str
    better: str  # "lower" | "higher"
    bound: float


class Contract(NamedTuple):
    workloads: List[str]
    metrics: List[Metric]


class Run(NamedTuple):
    attempted: int
    failed: int
    values: dict  # metric name -> value


def load_contract(path: Union[str, os.PathLike] = CONTRACT) -> Contract:
    """The workload names and end-to-end metrics of ``BENCHMARK.json``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        workloads = [str(w["name"]) for w in payload["workloads"]]
        metrics = [Metric(str(m["name"]), m["better"], float(m["bound"]))
                   for m in payload["end_to_end"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise BenchDataError(
            f"{path}: not a benchmark contract ({exc!r})") from None
    if not workloads or not metrics or any(
            m.better not in ("lower", "higher") or not m.bound > 0
            for m in metrics):
        raise BenchDataError(f"{path}: needs workloads and end_to_end metrics, "
                             f"each with better lower|higher and a bound > 0")
    return Contract(workloads, metrics)


def load_runs(path: Path, names: Sequence[str]) -> List[Run]:
    """The runs of one ``<workload>.jsonl`` file (blank lines skipped)."""
    lines = path.read_bytes().splitlines()  # json.loads decodes UTF-8
    runs = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            result = json.loads(line)
            runs.append(Run(
                int(result["attempted"]), int(result["failed"]),
                {n: float(result["metrics"][n]["value"]) for n in names}))
        except KeyError as exc:
            raise BenchDataError(
                f"{where}: result has no {exc.args[0]!r}") from None
        except (ValueError, TypeError) as exc:
            raise BenchDataError(
                f"{where}: not a perfbench result line ({exc})") from None
        if runs[-1].attempted <= 0 or min(runs[-1].values.values()) <= 0:
            raise BenchDataError(
                f"{where}: needs attempted operations and positive metrics")
    if not runs:
        raise BenchDataError(f"{path}: no runs")
    return runs


def spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) / median; zero for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Verdict:
    """One (workload, metric) row: medians, or failure shares."""

    workload: str
    metric: str
    parent: float
    change: float
    delta: float  # median's relative change (share's absolute), + = worse
    spread: float  # the parent's (Q3 − Q1) / median
    bound: float
    status: str  # "ok" | "unresolved" | "regression"


def judge(workload: str, metric: Metric, parent: Sequence[float],
          change: Sequence[float]) -> Verdict:
    """The verdict on one metric of one workload (see module docstring)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    delta = sign * (c_med - p_med) / p_med
    p_spread = spread(parent)
    if p_spread > metric.bound:
        # Resolved only when no change run overlaps the parent's runs.
        c, p = [sign * v for v in change], [sign * v for v in parent]
        status = ("regression" if min(c) > max(p) else
                  "ok" if max(c) < min(p) else "unresolved")
    else:
        status = "regression" if delta > metric.bound else "ok"
    return Verdict(workload, metric.name, p_med, c_med, delta, p_spread,
                   metric.bound, status)


def failure_share(workload: str, parent: Sequence[Run],
                  change: Sequence[Run]) -> Verdict:
    """The verdict on a workload's total failed / attempted share."""
    def share(runs):
        return sum(r.failed for r in runs) / sum(r.attempted for r in runs)
    p, c = share(parent), share(change)
    return Verdict(workload, FAILED, p, c, c - p, 0.0, 0.0,
                   "regression" if c > p else "ok")


@dataclass
class GateResult:
    """Every verdict, in contract order, plus the run counts per side."""

    verdicts: List[Verdict]
    runs: dict  # workload -> (parent runs, change runs)

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = ["bench compare  (medians, parent vs change; bounds from "
                 "BENCHMARK.json)",
                 f"  {'workload':<15s} {'metric':<17s} {'runs':>5s} "
                 f"{'parent':>9s} {'change':>9s} {'delta':>7s} "
                 f"{'spread':>7s} {'bound':>6s}  verdict"]
        for v in self.verdicts:
            runs = "{}/{}".format(*self.runs[v.workload])
            lines.append(
                f"  {v.workload:<15s} {v.metric:<17s} {runs:>5s} "
                f"{v.parent:>9.4g} {v.change:>9.4g} {v.delta:>+7.1%} "
                f"{v.spread:>7.1%} {v.bound:>6.0%}  {v.status}")
        unresolved = sum(v.status == "unresolved" for v in self.verdicts)
        if self.passed:
            lines.append("PASS" + (f" ({unresolved} unresolved)"
                                   if unresolved else ""))
        else:
            names = ", ".join(f"{v.workload} {v.metric}"
                              for v in self.regressions)
            lines.append(f"FAIL: {len(self.regressions)} regression(s): "
                         f"{names}")
        return "\n".join(lines) + "\n"


def compare_dirs(parent_dir: Union[str, os.PathLike],
                 change_dir: Union[str, os.PathLike],
                 contract: Contract) -> GateResult:
    """Judge every contract workload's runs in ``change_dir`` against
    the same workload's runs in ``parent_dir``."""
    names = [m.name for m in contract.metrics]
    result = GateResult([], {})
    for workload in contract.workloads:
        parent = load_runs(Path(parent_dir) / f"{workload}.jsonl", names)
        change = load_runs(Path(change_dir) / f"{workload}.jsonl", names)
        result.runs[workload] = (len(parent), len(change))
        for metric in contract.metrics:
            result.verdicts.append(judge(
                workload, metric, [r.values[metric.name] for r in parent],
                [r.values[metric.name] for r in change]))
        result.verdicts.append(failure_share(workload, parent, change))
    return result
