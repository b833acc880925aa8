"""Resource allocation (sum of limits) by tier — figures 4 and 5.

The headline of section 4: by 2019 both CPU and memory are consistently
allocated *above 100%* of deployed capacity (statistical multiplexing /
over-commit), where 2011 over-committed CPU much more than memory.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.analysis.common import average_tier_fractions, hourly_tier_series
from repro.trace.dataset import TraceDataset


def allocation_timeseries(trace: TraceDataset,
                          resource: str = "cpu") -> Dict[str, np.ndarray]:
    """Hourly per-tier allocated limits as a fraction of capacity (figure 4)."""
    return hourly_tier_series(trace, resource=resource, quantity="allocation")


def mean_allocation_timeseries(traces: Sequence[TraceDataset],
                               resource: str = "cpu") -> Dict[str, np.ndarray]:
    """Figure 4's 2019 panels: allocation averaged across cells."""
    if not traces:
        raise ValueError("mean_allocation_timeseries requires at least one trace")
    acc: Dict[str, np.ndarray] = {}
    for trace in traces:
        series = allocation_timeseries(trace, resource=resource)
        for tier, values in series.items():
            acc[tier] = acc.get(tier, 0) + values
    return {tier: values / len(traces) for tier, values in acc.items()}


def allocation_by_cell(traces: Sequence[TraceDataset],
                       resource: str = "cpu") -> Dict[str, Dict[str, float]]:
    """Figure 5's bars: average allocation fraction by tier, per cell."""
    return {t.cell: average_tier_fractions(t, resource=resource,
                                           quantity="allocation")
            for t in traces}
