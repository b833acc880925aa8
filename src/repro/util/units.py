"""Resource-unit helpers.

Both traces normalize CPU (Normalized Compute Units, NCUs) and memory
(Normalized Memory Units, NMUs) to the 0-1 range by dividing by the
largest machine in the trace.  The helpers here implement that scaling
and the small arithmetic helpers used throughout the analyses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def normalize(values: Sequence[float]) -> np.ndarray:
    """Rescale ``values`` so the maximum becomes 1.0 (trace NCU/NMU scaling).

    An all-zero input is returned unchanged rather than producing NaNs —
    it corresponds to a trace with no resources, which downstream
    analyses handle as empty.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr
    peak = float(arr.max())
    if peak <= 0:
        return arr.copy()
    return arr / peak
