"""Samplers for the heavy-tailed distributions driving the workload model.

Job resource-hours in the trace follow Pareto(alpha) with alpha < 1
(infinite mean in the unbounded limit).  The workload generator uses a
*bounded* Pareto so that scaled-down simulations stay finite while
preserving the tail exponent over the observable range.
"""

from __future__ import annotations

import numpy as np


def bounded_pareto_quantile(u, alpha: float, x_min: float, x_max: float):
    """Inverse CDF of the bounded Pareto on [x_min, x_max].

    CDF: F(x) = (1 - (x_min/x)^alpha) / (1 - (x_min/x_max)^alpha).
    Accepts scalar or array ``u`` in [0, 1).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0 < x_min < x_max:
        raise ValueError(f"need 0 < x_min < x_max, got {x_min}, {x_max}")
    u = np.asarray(u, dtype=float)
    ratio = (x_min / x_max) ** alpha
    return x_min / np.power(1.0 - u * (1.0 - ratio), 1.0 / alpha)


def bounded_pareto_sample(rng: np.random.Generator, alpha: float, x_min: float,
                          x_max: float, size: int) -> np.ndarray:
    """Bounded Pareto(alpha) on [x_min, x_max] by inverse-CDF sampling."""
    return np.atleast_1d(bounded_pareto_quantile(rng.random(size), alpha, x_min, x_max))


def stratified_uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniforms with one sample per equal-width stratum, shuffled.

    A low-discrepancy replacement for iid uniforms: pushing these through
    an inverse CDF yields a sample whose empirical distribution matches
    the target far more tightly than iid draws — crucial when a Pareto
    tail with alpha < 1 carries almost all of the mass, where an iid
    sample's realized mean is dominated by whether the top stratum
    happened to be drawn.  Marginally each value is still Uniform(0, 1).
    """
    if size <= 0:
        return np.empty(0)
    u = (np.arange(size) + rng.random(size)) / size
    rng.shuffle(u)
    return u
