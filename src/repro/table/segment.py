"""The one group-by kernel: a stable sort, then the start of each run.

Every "reduce rows per key" in the package goes through
:func:`segments`: sort the keys once (stably, so each group keeps its
input row order), mark where the sorted key changes, and reduce each
run with a ``ufunc.reduceat`` over those starts::

    order, starts = segments(keys)
    unique_keys = keys[order[starts]]
    sums = np.add.reduceat(values[order], starts)
    sizes = np.diff(starts, append=len(keys))

The one exception is the simulator's capacity reconcile
(``repro.sim.cell``), which runs once over every usage row of a cell:
it builds the same order by sorting its keys packed above the row
index, which needs no stable-sort buffer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def segments(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)`` grouping ``keys`` into runs of equal value.

    ``order`` is the stable argsort of ``keys``; ``starts`` holds the
    first position in ``keys[order]`` of each run of equal keys, in
    ascending key order.  Empty keys give two empty ``int64`` arrays.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    if len(keys):
        starts = np.concatenate(([0], starts))
    return order, starts
