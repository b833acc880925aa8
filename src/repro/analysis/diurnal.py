"""Diurnal load cycles (paper section 4.1's timezone observation).

"The load at midnight PDT was much higher in cell g in Singapore where
it was 3pm, than in the others where it was 2 or 3am locally."  The
cells' workloads follow local wall-clock time, so a fixed-UTC snapshot
catches them at different points of their daily cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def usage_by_local_hour(trace: TraceDataset, resource: str = "cpu") -> np.ndarray:
    """Mean usage (fraction of capacity) for each local hour-of-day (24 bins)."""
    if resource not in ("cpu", "mem"):
        raise ValueError(f"resource must be 'cpu' or 'mem', got {resource!r}")
    iu = trace.instance_usage
    capacity = trace.capacity_cpu if resource == "cpu" else trace.capacity_mem
    sums = np.zeros(24)
    seconds = np.zeros(24)
    if len(iu) == 0 or capacity <= 0:
        return sums
    column = "avg_cpu" if resource == "cpu" else "avg_mem"
    start = iu.column("start_time").values
    local_hour = ((start / HOUR_SECONDS + trace.utc_offset_hours) % 24.0).astype(np.int64)
    weights = iu.column(column).values * iu.column("duration").values
    sums = np.bincount(local_hour, weights=weights, minlength=24)
    # Normalize by how much wall-clock time the trace spends in each bin.
    n_hours = int(trace.horizon / HOUR_SECONDS)
    trace_hours = np.arange(n_hours)
    bin_of_hour = ((trace_hours + trace.utc_offset_hours) % 24).astype(np.int64)
    seconds = np.bincount(bin_of_hour, minlength=24) * HOUR_SECONDS
    out = np.zeros(24)
    nonzero = seconds > 0
    out[nonzero] = sums[nonzero] / seconds[nonzero] / capacity
    return out


@dataclass(frozen=True)
class UtcSnapshot:
    """Load of every cell at one fixed UTC hour (the section 4.1 contrast)."""

    utc_hour: float
    load_by_cell: Dict[str, float]
    local_hour_by_cell: Dict[str, float]


def load_at_utc_hour(traces: Sequence[TraceDataset], utc_hour: float = 7.0,
                     resource: str = "cpu") -> UtcSnapshot:
    """Each cell's mean load during a fixed UTC hour-of-day.

    The default 07:00 UTC is midnight PDT — the paper's example, where
    Singapore (cell g) is at 3pm and busy while US cells sleep.
    """
    load: Dict[str, float] = {}
    local: Dict[str, float] = {}
    for trace in traces:
        by_local = usage_by_local_hour(trace, resource)
        local_hour = (utc_hour + trace.utc_offset_hours) % 24.0
        load[trace.cell] = float(by_local[int(local_hour) % 24])
        local[trace.cell] = local_hour
    return UtcSnapshot(utc_hour=utc_hour, load_by_cell=load,
                       local_hour_by_cell=local)


def diurnal_amplitude(trace: TraceDataset, resource: str = "cpu") -> float:
    """(peak - trough) / mean of the local-hour profile; 0 for flat load."""
    profile = usage_by_local_hour(trace, resource)
    mean = profile.mean()
    if mean <= 0:
        return 0.0
    return float((profile.max() - profile.min()) / mean)
