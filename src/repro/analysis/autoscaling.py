"""Autopilot effectiveness: peak NCU slack (paper figure 14, section 8).

    peak NCU slack = max(0, limit - peak usage) / limit

computed per 5-minute sample per task.  The paper finds fully-autoscaled
jobs clearly beat constrained autoscaling, which beats manual limits —
"reducing the peak NCU slack by more than 25% for the vast majority of
jobs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.sim.autopilot import peak_slack
from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.trace.dataset import TraceDataset

#: Figure 14's three lines.
MODES = ("fully", "constrained", "none")


def peak_slack_samples(trace: TraceDataset) -> Dict[str, np.ndarray]:
    """Per-sample peak CPU slack fractions, grouped by autoscaling mode.

    Alloc-set reservation rows (zero usage by construction) are excluded
    — slack is a per-task quantity.
    """
    iu = trace.instance_usage
    out: Dict[str, np.ndarray] = {mode: np.empty(0) for mode in MODES}
    if len(iu) == 0:
        return out
    limits = iu.column("limit_cpu").values
    peaks = iu.column("max_cpu").values
    modes = iu.column("vertical_scaling").values
    # Rows with zero usage and zero peak are alloc reservations.
    task_rows = (peaks > 0) & (limits > 0)
    slack = np.zeros(len(iu))
    slack[task_rows] = peak_slack(limits[task_rows], peaks[task_rows])
    for mode in MODES:
        mask = task_rows & (modes == mode)
        out[mode] = slack[mask]
    return out


def slack_ccdf_by_mode(traces: Sequence[TraceDataset]) -> Dict[str, Ccdf]:
    """Figure 14: CCDF of percentage peak slack per autoscaling mode."""
    pooled: Dict[str, list] = {mode: [] for mode in MODES}
    for trace in traces:
        for mode, values in peak_slack_samples(trace).items():
            if values.size:
                pooled[mode].append(values)
    return {mode: empirical_ccdf(np.concatenate(chunks) * 100.0)
            for mode, chunks in pooled.items() if chunks}


@dataclass(frozen=True)
class SlackSummary:
    """Median slack per mode plus the headline saving."""

    median_slack: Dict[str, float]

    @property
    def fully_vs_manual_saving(self) -> float:
        """Median slack reduction of full autoscaling vs manual limits."""
        manual = self.median_slack.get("none", 0.0)
        fully = self.median_slack.get("fully", 0.0)
        return manual - fully


def summarize_slack(traces: Sequence[TraceDataset]) -> SlackSummary:
    ccdfs = slack_ccdf_by_mode(traces)
    medians = {mode: ccdf.quantile_of_exceedance(0.5) / 100.0
               for mode, ccdf in ccdfs.items()}
    return SlackSummary(median_slack=medians)
