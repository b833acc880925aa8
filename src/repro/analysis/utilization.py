"""Resource utilization by tier (paper figures 2 and 3, section 4)."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.analysis.common import average_tier_fractions, hourly_tier_series
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


def usage_timeseries(trace: TraceDataset, resource: str = "cpu") -> Dict[str, np.ndarray]:
    """Hourly per-tier usage as a fraction of cell capacity (figure 2)."""
    return hourly_tier_series(trace, resource=resource, quantity="usage")


def mean_usage_timeseries(traces: Sequence[TraceDataset],
                          resource: str = "cpu") -> Dict[str, np.ndarray]:
    """Figure 2's 2019 panels: per-tier series averaged across cells.

    Cells must share a horizon (the presets guarantee this).
    """
    if not traces:
        raise ValueError("mean_usage_timeseries requires at least one trace")
    lengths = {int(np.ceil(t.horizon / HOUR_SECONDS)) for t in traces}
    if len(lengths) != 1:
        raise ValueError(f"traces have different horizons: {sorted(lengths)}")
    acc: Dict[str, np.ndarray] = {}
    for trace in traces:
        series = usage_timeseries(trace, resource=resource)
        for tier, values in series.items():
            acc[tier] = acc.get(tier, 0) + values
    return {tier: values / len(traces) for tier, values in acc.items()}


def usage_by_cell(traces: Sequence[TraceDataset],
                  resource: str = "cpu") -> Dict[str, Dict[str, float]]:
    """Figure 3's bars: average usage fraction by tier, per cell."""
    return {t.cell: average_tier_fractions(t, resource=resource, quantity="usage")
            for t in traces}


def total_usage_fraction(trace: TraceDataset, resource: str = "cpu") -> float:
    """Whole-trace average usage across all tiers (one number per cell)."""
    fractions = average_tier_fractions(trace, resource=resource, quantity="usage")
    return float(sum(fractions.values()))
