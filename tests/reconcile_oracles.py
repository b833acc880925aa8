"""Reference spelling of the machine-capacity reconcile.

:func:`repro.sim.cell._reconcile_machine_usage` must leave the usage
columns exactly as this function does, byte for byte: rows grouped by
(machine, ``rint(window_start / period)``) through
:func:`repro.table.segment.segments` (a stable argsort, so each group
keeps its row order), group sums by ``np.add.reduceat``, and every row
multiplied by a per-row ``scale`` that is 1.0 outside the over-capacity
groups.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.sim.fleet import FleetState
from repro.table.segment import segments


def reference_reconcile(usage: Dict[str, np.ndarray], slots: np.ndarray,
                        fleet: FleetState, sample_period: float) -> None:
    """Throttle ``usage`` in place, one group per (machine id, window)."""
    n = len(usage["window_start"])
    if n == 0:
        return
    machine_ids = fleet.machine_id[slots]
    window = np.rint(usage["window_start"] / sample_period).astype(np.int64)
    key = machine_ids * 10_000_000 + window
    order, starts = segments(key)
    group_slots = slots[order[starts]]
    limit_cpu = fleet.capacity_cpu[group_slots]
    limit_mem = fleet.capacity_mem[group_slots]
    counts = np.diff(starts, append=n)
    for col_avg, col_max, limits in (("avg_cpu", "max_cpu", limit_cpu),
                                     ("avg_mem", "max_mem", limit_mem)):
        sums = np.add.reduceat(usage[col_avg][order], starts)
        factors = np.ones(len(starts))
        over = sums > limits * 0.98
        factors[over] = (limits[over] * 0.98) / sums[over]
        row_factors = np.repeat(factors, counts)
        scale = np.ones(n)
        scale[order] = row_factors
        usage[col_avg] *= scale
        usage[col_max] *= scale
