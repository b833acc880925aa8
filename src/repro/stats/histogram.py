"""Fixed-edge histograms.

The 2019 trace also ships, per 5-minute usage sample, a 21-point CPU
percentile histogram biased towards the high end.  The encoder does not
emit it (see DESIGN.md §3), so nothing here models it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

def histogram(samples: Sequence[float], edges: Sequence[float]) -> np.ndarray:
    """Counts of samples per bucket defined by sorted ``edges``.

    Returns ``len(edges) - 1`` counts; samples outside [edges[0],
    edges[-1]] are clipped into the end buckets so no data is lost.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-D array of at least two values")
    if (np.diff(edges) <= 0).any():
        raise ValueError("edges must be strictly increasing")
    arr = np.clip(np.asarray(samples, dtype=float), edges[0], edges[-1])
    counts, _ = np.histogram(arr, bins=edges)
    return counts
