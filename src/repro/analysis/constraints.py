"""Placement-constraint analysis (a new 2019 trace feature, paper §1/§3).

The 2019 trace exposes machine-attribute placement constraints.  This
module measures their prevalence, verifies satisfaction (every scheduled
task of a constrained job runs on a matching platform), and quantifies
their scheduling cost: constrained jobs can only use a slice of the
cell, so they queue longer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.common import group_reduce
from repro.analysis.sched_delay import scheduling_delays
from repro.trace.dataset import TraceDataset


@dataclass(frozen=True)
class ConstraintReport:
    """Prevalence, satisfaction, and delay impact of constraints."""

    constrained_job_fraction: float
    constraints_by_platform: Dict[str, int]
    satisfied_fraction: float
    median_delay_constrained: float
    median_delay_unconstrained: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "jobs with a placement constraint": self.constrained_job_fraction,
            "constrained placements satisfied": self.satisfied_fraction,
            "median delay, constrained (s)": self.median_delay_constrained,
            "median delay, unconstrained (s)": self.median_delay_unconstrained,
        }


def _constraints_of(trace: TraceDataset) -> Tuple[np.ndarray, np.ndarray]:
    """Constrained job ids (sorted) and each one's required platform,
    from its last job SUBMIT that names a constraint."""
    ce = trace.collection_events
    constraints = ce.column("constraint").values
    rows = np.flatnonzero((ce.column("type").values == "SUBMIT")
                          & (ce.column("collection_type").values == "job")
                          & (constraints != ""))
    ids, last = group_reduce(ce.column("collection_id").values[rows], rows,
                             np.maximum.reduceat)
    return ids, constraints[last]


def constraint_report(traces: Sequence[TraceDataset]) -> ConstraintReport:
    n_jobs = 0
    by_platform: Counter = Counter()
    satisfied = 0
    total_placements = 0
    delays_constrained: List[float] = []
    delays_unconstrained: List[float] = []

    for trace in traces:
        constrained, required = _constraints_of(trace)
        ce = trace.collection_events
        submits = ((ce.column("type").values == "SUBMIT")
                   & (ce.column("collection_type").values == "job"))
        n_jobs += int(submits.sum())
        by_platform.update(required.tolist())

        # Join each SCHEDULE of a constrained job to the platform of its
        # machine (the last attributes row of that machine wins).
        ie = trace.instance_events
        schedule = ie.column("type").values == "SCHEDULE"
        job_ids = ie.column("collection_id").values[schedule]
        hit = np.isin(job_ids, constrained)
        total_placements += int(hit.sum())
        wanted = required[np.searchsorted(constrained, job_ids[hit])]
        attrs = trace.machine_attributes
        machine_ids, last = group_reduce(attrs.column("machine_id").values,
                                         np.arange(len(attrs)),
                                         np.maximum.reduceat)
        machines = ie.column("machine_id").values[schedule][hit]
        known = np.isin(machines, machine_ids)
        platforms = attrs.column("platform").values[
            last[np.searchsorted(machine_ids, machines[known])]]
        satisfied += int((platforms == wanted[known]).sum())

        delays = scheduling_delays(trace)
        is_constrained = np.isin(delays.column("collection_id").values,
                                 constrained)
        d_vals = delays.column("delay").values
        delays_constrained.extend(d_vals[is_constrained].tolist())
        delays_unconstrained.extend(d_vals[~is_constrained].tolist())

    n_constrained = sum(by_platform.values())
    return ConstraintReport(
        constrained_job_fraction=n_constrained / n_jobs if n_jobs else 0.0,
        constraints_by_platform=dict(by_platform),
        satisfied_fraction=(satisfied / total_placements
                            if total_placements else 1.0),
        median_delay_constrained=(float(np.median(delays_constrained))
                                  if delays_constrained else 0.0),
        median_delay_unconstrained=(float(np.median(delays_unconstrained))
                                    if delays_unconstrained else 0.0),
    )
