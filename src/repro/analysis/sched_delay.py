"""Job scheduling delay (paper figure 10, section 6.3).

The metric: time from a job becoming *ready* (entering the pending
state — after any deliberate batch-queue delay) to its **first** task
running.  The paper picked first-task latency because Borg starts a job
as soon as any task runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.common import empty_result, group_reduce, merge_monitoring_tier
from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.table import Table
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def scheduling_delays(trace: TraceDataset,
                      skip_warmup_hours: float = 1.0) -> Table:
    """Per-job (collection_id, tier, delay_seconds).

    Ready time is the last ENABLE event when one exists (batch-queued
    jobs: the queue wait is deliberate and excluded from the metric) and
    the first SUBMIT event otherwise; tier and kind come from the last
    SUBMIT; first-running is the earliest SCHEDULE among the job's
    instances.  Jobs submitted in the first ``skip_warmup_hours`` are
    dropped (warm-start artifacts), as are jobs that never started.
    Rows come in the order each job first appears among the SUBMIT and
    ENABLE events.
    """
    ce = trace.collection_events
    if len(ce) == 0:
        return empty_result({"collection_id": "int", "tier": "str",
                             "delay": "float"})
    ids = ce.column("collection_id").values
    types = ce.column("type").values
    times = ce.column("time").values
    rows = np.arange(len(ce))
    submit = types == "SUBMIT"
    enable = types == "ENABLE"
    job_ids, first_submit = group_reduce(ids[submit], rows[submit],
                                         np.minimum.reduceat)
    _, last_submit = group_reduce(ids[submit], rows[submit],
                                  np.maximum.reduceat)
    ready = times[first_submit]
    enabled_ids, last_enable = group_reduce(ids[enable], rows[enable],
                                            np.maximum.reduceat)
    enabled = np.isin(job_ids, enabled_ids)
    ready[enabled] = times[last_enable[np.searchsorted(enabled_ids,
                                                       job_ids[enabled])]]

    ie = trace.instance_events
    schedule = ie.column("type").values == "SCHEDULE"
    run_ids, first_run = group_reduce(
        ie.column("collection_id").values[schedule],
        ie.column("time").values[schedule], np.minimum.reduceat)
    keep = np.flatnonzero(
        np.isin(job_ids, run_ids)
        & (ce.column("collection_type").values[last_submit] == "job")
        & (ready >= skip_warmup_hours * HOUR_SECONDS))

    # ``job_ids`` is sorted: restore the order of first appearance.
    seen_ids, first_seen = group_reduce(ids[submit | enable],
                                        rows[submit | enable],
                                        np.minimum.reduceat)
    keep = keep[np.argsort(first_seen[np.searchsorted(seen_ids, job_ids[keep])])]
    delay = first_run[np.searchsorted(run_ids, job_ids[keep])] - ready[keep]
    return Table({
        "collection_id": job_ids[keep],
        "tier": merge_monitoring_tier(ce.column("tier").values[last_submit[keep]]),
        "delay": np.where(delay > 0.0, delay, 0.0),
    })


def delay_ccdf_by_tier(traces: Sequence[TraceDataset]) -> Dict[str, Ccdf]:
    """Figure 10b: delay CCDF per tier, aggregated across cells."""
    pooled: Dict[str, List[np.ndarray]] = {}
    for trace in traces:
        table = scheduling_delays(trace)
        tiers = table.column("tier").values
        delays = table.column("delay").values
        for tier in dict.fromkeys(tiers.tolist()):
            pooled.setdefault(tier, []).append(delays[tiers == tier])
    return {tier: empirical_ccdf(np.concatenate(parts))
            for tier, parts in pooled.items()}


def median_delay(trace: TraceDataset) -> float:
    """Median first-task scheduling delay for one cell, seconds."""
    delays = scheduling_delays(trace).column("delay").values
    return float(np.median(delays)) if len(delays) else 0.0
