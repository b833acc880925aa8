"""Batch-queue behavior (paper sections 3 and 6.3's queued-state note).

Figure 10 deliberately measures scheduling delay from the *ready* state,
excluding the batch scheduler's deliberate queueing; this module
measures what was excluded: how long best-effort-batch jobs wait in the
QUEUED state, how many jobs queue at all, and the queue depth over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.table import Table
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def _queue_stays(ce: Table, leave: Tuple[str, ...]) -> Tuple[np.ndarray, ...]:
    """Row pairs (QUEUE, leaving event) and the rows of QUEUEs still open.

    Within each collection, in row order, a ``leave`` event closes the
    queue stay when the QUEUE/``leave`` event just before it is a QUEUE;
    a QUEUE followed by another QUEUE is superseded.  Pairs come out in
    the row order of their leaving events.
    """
    ids = ce.column("collection_id").values
    types = ce.column("type").values
    queue = types == "QUEUE"
    rows = np.flatnonzero(queue | np.isin(types, leave))
    rows = rows[np.argsort(ids[rows], kind="stable")]
    same = ids[rows[1:]] == ids[rows[:-1]]
    opens = queue[rows]
    closed = same & opens[:-1] & ~opens[1:]
    order = np.argsort(rows[1:][closed])
    still_open = opens & ~np.r_[same, False]
    return rows[:-1][closed][order], rows[1:][closed][order], rows[still_open]


def queue_waits(trace: TraceDataset) -> np.ndarray:
    """QUEUE -> ENABLE wait per batch-queued collection, seconds.

    Collections still queued at the horizon are censored (excluded),
    like every duration statistic over a finite trace window.
    """
    ce = trace.collection_events
    queued, enabled, _ = _queue_stays(ce, ("ENABLE",))
    times = ce.column("time").values
    return times[enabled] - times[queued]


def queue_depth_series(trace: TraceDataset) -> np.ndarray:
    """Number of collections sitting in the queue, sampled hourly."""
    ce = trace.collection_events
    n_hours = int(np.ceil(trace.horizon / HOUR_SECONDS))
    queued, left, still_queued = _queue_stays(
        ce, ("ENABLE", "KILL", "FINISH", "FAIL", "EVICT"))
    hour = (ce.column("time").values / HOUR_SECONDS).astype(np.int64)
    # Still-queued collections occupy the queue to the horizon.
    delta = (np.bincount(hour[np.r_[queued, still_queued]], minlength=n_hours + 1)
             - np.bincount(np.minimum(hour[left], n_hours - 1) + 1,
                           minlength=n_hours + 1))
    return np.cumsum(delta[:n_hours].astype(float))


@dataclass(frozen=True)
class BatchQueueReport:
    """Headline batch-queue statistics for a set of cells."""

    queued_fraction_of_beb_jobs: float
    median_wait_seconds: float
    p90_wait_seconds: float
    max_queue_depth: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "beb jobs that waited in the queue": self.queued_fraction_of_beb_jobs,
            "median queue wait (s)": self.median_wait_seconds,
            "90%ile queue wait (s)": self.p90_wait_seconds,
            "max queue depth (collections)": self.max_queue_depth,
        }


def batch_queue_report(traces: Sequence[TraceDataset]) -> BatchQueueReport:
    n_beb = 0
    n_queued = 0
    waits = []
    depth = 0.0
    for trace in traces:
        ce = trace.collection_events
        types = ce.column("type").values
        tiers = ce.column("tier").values
        kinds = ce.column("collection_type").values
        n_beb += int(((types == "SUBMIT") & (tiers == "beb")
                      & (kinds == "job")).sum())
        n_queued += int((types == "QUEUE").sum())
        w = queue_waits(trace)
        if w.size:
            waits.append(w)
        series = queue_depth_series(trace)
        if series.size:
            depth = max(depth, float(series.max()))
    pooled = np.concatenate(waits) if waits else np.zeros(1)
    return BatchQueueReport(
        queued_fraction_of_beb_jobs=n_queued / n_beb if n_beb else 0.0,
        median_wait_seconds=float(np.median(pooled)),
        p90_wait_seconds=float(np.percentile(pooled, 90)),
        max_queue_depth=depth,
    )
