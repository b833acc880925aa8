"""Statistics substrate: the estimators behind every figure and table.

The paper presents its results as Complementary Cumulative Distribution
Functions (CCDFs), power-law (Pareto) tail fits with R² goodness of fit,
squared coefficients of variation (C²), top-k%% load shares ("hogs and
mice") and Pearson correlations of bucketed medians.  Each of those
lives here as a small, independently tested unit.  The 2019 trace's
21-point CPU-usage histograms are not modelled (DESIGN.md §3).
"""

from repro.stats.ccdf import Ccdf, empirical_ccdf
from repro.stats.correlation import bucketed_medians, pearson
from repro.stats.distributions import bounded_pareto_sample
from repro.stats.histogram import histogram
from repro.stats.moments import DistributionSummary, squared_cv, summarize
from repro.stats.pareto import ParetoFit, fit_pareto_ccdf, fit_pareto_mle
from repro.stats.tails import HogMouseSplit, split_hogs_mice, top_share

__all__ = [
    "Ccdf",
    "empirical_ccdf",
    "bucketed_medians",
    "pearson",
    "bounded_pareto_sample",
    "histogram",
    "DistributionSummary",
    "squared_cv",
    "summarize",
    "ParetoFit",
    "fit_pareto_ccdf",
    "fit_pareto_mle",
    "top_share",
    "HogMouseSplit",
    "split_hogs_mice",
]
