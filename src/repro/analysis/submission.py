"""Job and task submission rates (paper figures 8 and 9, section 6).

Figure 8: CCDF of jobs submitted per hour per cell; the 2019 median grew
3.7x over 2011.  Figure 9: tasks per hour, split into *new* tasks
(members of newly-submitted jobs) and *all* tasks (including
reschedules of previously-running work); the resubmitted:new ratio grew
from 0.66:1 to 2.26:1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro import obs
from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def _hourly_counts(times: np.ndarray, horizon: float,
                   skip_warmup_hours: int = 1) -> np.ndarray:
    """Events per hour, dropping the first hour(s).

    The warm-start convention front-loads carried-over jobs into the
    first seconds of the window, which would distort rate statistics.
    """
    n_hours = int(np.ceil(horizon / HOUR_SECONDS))
    hours = np.clip((times / HOUR_SECONDS).astype(np.int64), 0, n_hours - 1)
    counts = np.bincount(hours, minlength=n_hours)
    return counts[skip_warmup_hours:] if n_hours > skip_warmup_hours else counts


def job_submission_counts(trace: TraceDataset) -> np.ndarray:
    """Jobs (not alloc sets) submitted per hour."""
    ce = trace.collection_events
    if len(ce) == 0:
        return np.zeros(0)
    mask = ((ce.column("type").values == "SUBMIT")
            & (ce.column("collection_type").values == "job"))
    return _hourly_counts(ce.column("time").values[mask], trace.horizon)


@obs.traced("analysis.fig8.job_submission_ccdf")
def job_submission_ccdf(trace: TraceDataset) -> Ccdf:
    """Figure 8: CCDF of the per-hour job submission rate for one cell."""
    return empirical_ccdf(job_submission_counts(trace))


def aggregate_job_submission_ccdf(traces: Sequence[TraceDataset]) -> Ccdf:
    """Figure 8's '2019 - aggregate' line: mean rate across cells per hour."""
    counts = [job_submission_counts(t) for t in traces]
    n = min(len(c) for c in counts)
    stacked = np.vstack([c[:n] for c in counts])
    return empirical_ccdf(stacked.mean(axis=0))


def task_submission_counts(trace: TraceDataset, which: str = "all") -> np.ndarray:
    """Task-scheduling submissions per hour.

    ``which``: ``"new"`` counts first-time task submissions only;
    ``"all"`` also counts re-submissions of previously-running tasks
    (eviction reschedules and crash restarts — the system's churn).
    """
    if which not in ("new", "all"):
        raise ValueError(f"which must be 'new' or 'all', got {which!r}")
    ie = trace.instance_events
    if len(ie) == 0:
        return np.zeros(0)
    mask = ie.column("type").values == "SUBMIT"
    if which == "new":
        mask = mask & ie.column("is_new").values
    return _hourly_counts(ie.column("time").values[mask], trace.horizon)


@dataclass(frozen=True)
class SubmissionSummary:
    """The numbers section 6 quotes."""

    cell: str
    mean_jobs_per_hour: float
    median_jobs_per_hour: float
    median_new_tasks_per_hour: float
    median_all_tasks_per_hour: float

    @property
    def resubmit_to_new_ratio(self) -> float:
        """Median resubmitted-task rate over median new-task rate."""
        if self.median_new_tasks_per_hour == 0:
            return 0.0
        return ((self.median_all_tasks_per_hour - self.median_new_tasks_per_hour)
                / self.median_new_tasks_per_hour)


def summarize_submissions(trace: TraceDataset) -> SubmissionSummary:
    jobs = job_submission_counts(trace)
    new = task_submission_counts(trace, "new")
    all_tasks = task_submission_counts(trace, "all")
    return SubmissionSummary(
        cell=trace.cell,
        mean_jobs_per_hour=float(jobs.mean()) if jobs.size else 0.0,
        median_jobs_per_hour=float(np.median(jobs)) if jobs.size else 0.0,
        median_new_tasks_per_hour=float(np.median(new)) if new.size else 0.0,
        median_all_tasks_per_hour=float(np.median(all_tasks)) if all_tasks.size else 0.0,
    )


def growth_factors(trace_2011: TraceDataset,
                   traces_2019: Sequence[TraceDataset]) -> Dict[str, float]:
    """The longitudinal 2019/2011 ratios the paper headlines."""
    s11 = summarize_submissions(trace_2011)
    s19 = [summarize_submissions(t) for t in traces_2019]
    mean19 = float(np.mean([s.mean_jobs_per_hour for s in s19]))
    median19 = float(np.mean([s.median_jobs_per_hour for s in s19]))
    tasks19 = float(np.mean([s.median_all_tasks_per_hour for s in s19]))
    return {
        "mean_job_rate_growth": mean19 / max(s11.mean_jobs_per_hour, 1e-9),
        "median_job_rate_growth": median19 / max(s11.median_jobs_per_hour, 1e-9),
        "median_all_task_rate_growth": tasks19 / max(s11.median_all_tasks_per_hour, 1e-9),
        "resubmit_ratio_2011": s11.resubmit_to_new_ratio,
        "resubmit_ratio_2019": float(np.mean([s.resubmit_to_new_ratio for s in s19])),
    }
