"""Complementary Cumulative Distribution Functions.

The paper's primary visualization: ``Pr{X > x}`` as a function of x
(see its figures 6, 8, 9, 10, 11, 12, 14).  :class:`Ccdf` stores the
sorted sample once and answers point and grid queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Ccdf:
    """An empirical CCDF over a finite sample.

    ``xs`` are the sorted unique sample values; ``probs[i]`` is the
    fraction of samples strictly greater than ``xs[i]``.
    """

    xs: np.ndarray
    probs: np.ndarray
    n_samples: int

    def at(self, x: float) -> float:
        """``Pr{X > x}`` for an arbitrary threshold ``x``."""
        # Number of samples strictly greater than x, via the sorted uniques:
        # find the first unique value > x; its prob entry is exactly what we
        # need *before* that value, so use searchsorted on xs with side
        # 'right' against the sorted sample reconstruction.
        idx = np.searchsorted(self.xs, x, side="right")
        if idx == 0:
            # x below every sample value: count samples > x = those >= xs[0]
            # minus ones equal to values <= x (none), i.e. everything unless
            # x >= xs[0].
            return 1.0 if x < self.xs[0] else float(self.probs[0])
        return float(self.probs[idx - 1])

    def quantile_of_exceedance(self, p: float) -> float:
        """Smallest x with ``Pr{X > x} <= p`` (an inverse-CCDF query)."""
        if not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p}")
        mask = self.probs <= p
        if not mask.any():
            return float(self.xs[-1])
        return float(self.xs[int(np.argmax(mask))])

    def as_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, Pr{X > x}) pairs, ready for plotting or text rendering."""
        return self.xs.copy(), self.probs.copy()


def empirical_ccdf(samples: Sequence[float]) -> Ccdf:
    """Build the empirical CCDF of ``samples``.

    >>> c = empirical_ccdf([1.0, 2.0, 2.0, 5.0])
    >>> c.at(0.5), c.at(1.0), c.at(2.0), c.at(5.0)
    (1.0, 0.75, 0.25, 0.0)
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical_ccdf requires a non-empty sample")
    if np.isnan(arr).any():
        raise ValueError("empirical_ccdf received NaN samples")
    arr = np.sort(arr)
    xs, first_idx = np.unique(arr, return_index=True)
    counts = np.diff(np.append(first_idx, arr.size))
    greater = arr.size - np.cumsum(counts)
    return Ccdf(xs=xs, probs=greater / arr.size, n_samples=int(arr.size))
