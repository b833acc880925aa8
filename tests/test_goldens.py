"""Golden-figure regression tests: exact numeric snapshots of figures.

Each test recomputes one paper figure/table from the session-scoped
seed-11 traces and compares the result — bit-for-bit, after a JSON
round-trip — against a checked-in golden under ``tests/goldens/``.  The
simulator and every reducer are deterministic, so any diff is a real
behavior change: either a bug, or an intentional change that must be
reviewed alongside a regenerated golden.

Regenerate after an intentional change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_goldens.py

and commit the rewritten JSON files with the change that caused them.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.analysis import (
    allocsets,
    batch_queue,
    constraints,
    consumption,
    failures,
    machine_util,
    report,
    sched_delay,
    submission,
    summary,
    tasks_per_job,
    terminations,
    transitions,
)
from repro.analysis.common import hourly_tier_series, job_usage_integrals
from repro.queueing import compare_isolation, pollaczek_khinchine
from repro.stats import squared_cv, top_share
from repro.table import concat

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: CCDF evaluation grids (mirror the benchmark suite's print grids).
UTIL_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
USAGE_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
#: Resubmission backoff delays (seconds) — spans the heavy profile's
#: exponential ladder (60 * 2**k, capped at an hour).
RESUBMIT_GRID = (30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1800.0, 3600.0)


def _jsonable(value):
    """Recursively convert numpy scalars/arrays so json.dumps round-trips."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _check_golden(name: str, computed) -> None:
    """Exact-match ``computed`` against ``tests/goldens/<name>.json``."""
    computed = json.loads(json.dumps(_jsonable(computed)))
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        GOLDEN_DIR.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(computed, f, indent=2, sort_keys=True)
            f.write("\n")
    golden = json.loads(path.read_text())
    assert computed == golden, (
        f"{name} drifted from its golden snapshot ({path}). If this "
        "change is intentional, regenerate with REPRO_REGEN_GOLDENS=1 "
        "and commit the updated golden with the code change.")


def test_golden_fig6_machine_utilization(trace_2011, trace_2019):
    computed = {
        f"{trace.era}.{resource}": [
            machine_util.machine_utilization_ccdf(trace, resource).at(x)
            for x in UTIL_GRID]
        for trace in (trace_2011, trace_2019)
        for resource in ("cpu", "mem")
    }
    _check_golden("fig6_machine_utilization", computed)


def test_golden_fig8_job_submission(trace_2011, traces_2019):
    ccdfs = {
        "2011": submission.job_submission_ccdf(trace_2011),
        "2019-aggregate": submission.aggregate_job_submission_ccdf(
            traces_2019),
        **{f"2019-{t.cell}": submission.job_submission_ccdf(t)
           for t in traces_2019},
    }
    computed = {
        name: {"median": ccdf.quantile_of_exceedance(0.5),
               "p90": ccdf.quantile_of_exceedance(0.1)}
        for name, ccdf in ccdfs.items()
    }
    computed["growth"] = submission.growth_factors(trace_2011, traces_2019)
    _check_golden("fig8_job_submission", computed)


def test_golden_table1_summary(traces_2011, traces_2019):
    col_2011, col_2019 = summary.table1(traces_2011, traces_2019)
    _check_golden("table1_summary", {"2011": col_2011, "2019": col_2019})


def test_golden_sec73_queueing(traces_2019):
    table = concat([job_usage_integrals(t) for t in traces_2019])
    sizes = table.column("ncu_hours").values
    sizes = sizes[sizes > 0]
    cv2 = squared_cv(sizes)
    report = compare_isolation(sizes, rho=0.5, hog_fraction=0.01)
    computed = {
        "jobs": len(sizes),
        "total_ncu_hours": float(sizes.sum()),
        "cv2": cv2,
        "top1_load_share": top_share(sizes, 0.01),
        "pk_delay_rho05": pollaczek_khinchine(0.5, cv2),
        "isolation": {
            "hog_load_share": report.hog_load_share,
            "shared_cv2": report.shared_cv2,
            "mice_cv2": report.mice_cv2,
            "shared_delay": report.shared_delay,
            "mice_only_delay": report.mice_only_delay,
            "speedup": report.speedup,
        },
    }
    _check_golden("sec73_queueing", computed)


def test_golden_fig12_usage_ccdf(traces_2011, traces_2019):
    computed = {
        f"{era}.{resource}": [
            consumption.usage_ccdf(traces, resource).at(x)
            for x in USAGE_GRID]
        for era, traces in (("2011", traces_2011), ("2019", traces_2019))
        for resource in ("cpu", "mem")
    }
    _check_golden("fig12_usage_ccdf", computed)


# -- scenario-pack goldens: the failure-heavy seed-11 cell ------------------

def test_golden_failure_rates_by_tier(trace_2019_faulty):
    computed = failures.failure_rates_by_tier([trace_2019_faulty])
    computed["availability"] = failures.machine_availability(
        [trace_2019_faulty], horizon=12 * 3600.0)
    _check_golden("failure_rates_by_tier", computed)


def test_golden_resubmission_intervals(result_2019_faulty):
    ccdf = failures.resubmission_interval_ccdf([result_2019_faulty])
    computed = {
        "ccdf": [ccdf.at(x) for x in RESUBMIT_GRID],
        "median_delay": ccdf.quantile_of_exceedance(0.5),
        "report": failures.resubmission_report([result_2019_faulty]),
    }
    _check_golden("resubmission_intervals", computed)


def test_golden_archetype_usage_shares(trace_2019_faulty):
    _check_golden("archetype_usage_shares",
                  failures.archetype_usage_shares([trace_2019_faulty]))


# -- event-table reducers: figures 2-5, 7, 10, 11, sections 5.1/5.2, extras --

def test_golden_hourly_tier_series(trace_2011, trace_2019):
    computed = {
        f"{trace.era}.{quantity}.{resource}": hourly_tier_series(
            trace, resource, quantity)
        for trace in (trace_2011, trace_2019)
        for quantity in ("usage", "allocation")
        for resource in ("cpu", "mem")
    }
    _check_golden("fig2_fig4_hourly_tier_series", computed)


def test_golden_fig7_transition_table(trace_2011, trace_2019,
                                      trace_2019_faulty):
    computed = {
        name: transitions.transition_table(trace)
        for name, trace in (("2011", trace_2011), ("2019", trace_2019),
                            ("2019-faulty", trace_2019_faulty))
    }
    _check_golden("fig7_transition_table", computed)


def test_golden_fig10_scheduling_delays(trace_2011, trace_2019,
                                        trace_2019_faulty):
    computed = {
        name: sched_delay.scheduling_delays(trace).to_dict()
        for name, trace in (("2011", trace_2011), ("2019", trace_2019),
                            ("2019-faulty", trace_2019_faulty))
    }
    _check_golden("fig10_scheduling_delays", computed)


def test_golden_fig11_tasks_per_job(trace_2019, trace_2019_faulty):
    computed = {
        name: tasks_per_job.tasks_per_job(trace)
        for name, trace in (("2019", trace_2019),
                            ("2019-faulty", trace_2019_faulty))
    }
    _check_golden("fig11_tasks_per_job", computed)


def test_golden_sec51_sec52_reports(trace_2019, trace_2019_faulty):
    computed = {
        name: {
            "alloc_sets": allocsets.alloc_set_report(traces).as_dict(),
            "terminations": terminations.termination_report(traces).as_dict(),
        }
        for name, traces in (("2019", [trace_2019]),
                             ("2019-faulty", [trace_2019_faulty]),
                             ("pooled", [trace_2019, trace_2019_faulty]))
    }
    _check_golden("sec51_sec52_reports", computed)


def test_golden_constraint_report(trace_2019, trace_2019_faulty):
    computed = {}
    for name, traces in (("2019", [trace_2019]),
                         ("pooled", [trace_2019, trace_2019_faulty])):
        rep = constraints.constraint_report(traces)
        computed[name] = {**rep.as_dict(),
                          "by_platform": rep.constraints_by_platform}
    _check_golden("constraint_report", computed)


def test_golden_batch_queue(trace_2019, trace_2019_faulty):
    computed = {
        name: {"waits": batch_queue.queue_waits(trace),
               "depth": batch_queue.queue_depth_series(trace)}
        for name, trace in (("2019", trace_2019),
                            ("2019-faulty", trace_2019_faulty))
    }
    _check_golden("batch_queue", computed)


def test_golden_full_report_sha256(traces_2011, traces_2019):
    text = report.full_report(traces_2011, traces_2019)
    _check_golden("full_report_sha256",
                  hashlib.sha256(text.encode("utf-8")).hexdigest())
