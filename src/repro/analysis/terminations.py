"""Termination analysis (paper section 5.2).

The paper's correction to the literature: most 2011-trace "failures"
were user-triggered kills, much of it parent-exit cascades.  Key
numbers: 87% of jobs *with* a parent end in a kill versus 41% without;
only 3.2% of collections ever see an instance eviction, 96.6% of those
in non-production tiers; <0.2% of production collections are evicted
and 52% of those only once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.analysis.common import group_reduce
from repro.table import segments
from repro.trace.dataset import TraceDataset

TERMINAL = ("FINISH", "EVICT", "KILL", "FAIL")


@dataclass(frozen=True)
class TerminationReport:
    """Section 5.2's statistics."""

    end_reason_counts: Dict[str, int]
    kill_rate_with_parent: float
    kill_rate_without_parent: float
    collections_with_evictions_fraction: float
    evicted_collections_nonprod_fraction: float
    prod_collections_evicted_fraction: float
    prod_evicted_single_eviction_fraction: float

    def as_dict(self) -> Dict[str, float]:
        out = {f"jobs ending in {k.lower()}": float(v)
               for k, v in sorted(self.end_reason_counts.items())}
        out.update({
            "kill rate (jobs with parent)": self.kill_rate_with_parent,
            "kill rate (jobs without parent)": self.kill_rate_without_parent,
            "collections with >=1 instance eviction": self.collections_with_evictions_fraction,
            "evicted collections in non-prod tiers": self.evicted_collections_nonprod_fraction,
            "prod collections with any eviction": self.prod_collections_evicted_fraction,
            "of those, exactly one eviction": self.prod_evicted_single_eviction_fraction,
        })
        return out


def termination_report(traces: Sequence[TraceDataset]) -> TerminationReport:
    """Compute section 5.2's statistics pooled across cells.

    Collection ids are pooled across cells as given: a collection's
    tier is that of its last SUBMIT in the last cell that submits it.
    """
    end_counts: Counter = Counter()
    killed_with_parent = total_with_parent = 0
    killed_without_parent = total_without_parent = 0
    n_collections = 0
    submit_ids = [np.empty(0, dtype=np.int64)]
    submit_tiers = [np.empty(0, dtype=object)]
    evicted_ids = [np.empty(0, dtype=np.int64)]

    for trace in traces:
        ce = trace.collection_events
        ids = ce.column("collection_id").values
        types = ce.column("type").values
        submit = types == "SUBMIT"
        terminal = np.isin(types, TERMINAL)
        n_collections += len(np.unique(ids[submit]))
        submit_ids.append(ids[submit])
        submit_tiers.append(ce.column("tier").values[submit])
        end_counts.update(types[terminal].tolist())

        # A terminal event counts as "with parent" when the latest SUBMIT
        # of its collection before it had a parent: walk each
        # collection's rows in row order, carrying the last SUBMIT row.
        rows = np.flatnonzero(submit | terminal)
        order, starts = segments(ids[rows])
        rows = rows[order]
        step = np.arange(len(rows))
        last_submit = np.maximum.accumulate(np.where(submit[rows], step, -1))
        segment_start = np.repeat(starts, np.diff(starts, append=len(rows)))
        parent = ce.column("parent_collection_id").values[rows[last_submit]] >= 0
        with_parent = (last_submit >= segment_start) & parent
        ends = terminal[rows]
        kills = types[rows] == "KILL"
        total_with_parent += int((ends & with_parent).sum())
        killed_with_parent += int((kills & with_parent).sum())
        total_without_parent += int((ends & ~with_parent).sum())
        killed_without_parent += int((kills & ~with_parent).sum())

        ie = trace.instance_events
        evicted_ids.append(
            ie.column("collection_id").values[ie.column("type").values == "EVICT"])

    tiered_ids, last = group_reduce(np.concatenate(submit_ids),
                                    np.arange(sum(map(len, submit_ids))),
                                    np.maximum.reduceat)
    prod_ids = tiered_ids[np.isin(np.concatenate(submit_tiers)[last],
                                  ("prod", "monitoring"))]
    evicted, evictions = np.unique(np.concatenate(evicted_ids),
                                   return_counts=True)
    prod_evicted = np.isin(evicted, prod_ids)
    n_prod_evicted = int(prod_evicted.sum())

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    return TerminationReport(
        end_reason_counts=dict(end_counts),
        kill_rate_with_parent=ratio(killed_with_parent, total_with_parent),
        kill_rate_without_parent=ratio(killed_without_parent, total_without_parent),
        collections_with_evictions_fraction=ratio(len(evicted), n_collections),
        evicted_collections_nonprod_fraction=ratio(len(evicted) - n_prod_evicted,
                                                   len(evicted)),
        prod_collections_evicted_fraction=ratio(n_prod_evicted, len(prod_ids)),
        prod_evicted_single_eviction_fraction=ratio(
            int((prod_evicted & (evictions == 1)).sum()), n_prod_evicted),
    )
