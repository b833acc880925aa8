"""Shared analysis primitives: per-job integrals, hourly tier series.

All heavy lifting is vectorized over the usage table's numpy columns —
the month-scale tables have millions of rows.  Each hot reducer also has
a ``*_store`` variant that runs against a chunked
:class:`~repro.store.reader.TraceStore` without materializing the table:
chunks stream through picklable per-chunk partial functions (optionally
across worker processes) and the partials merge associatively.
"""

from __future__ import annotations

import functools
import operator
from itertools import repeat
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.table import Table, segments
from repro.table.column import empty_column
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS

#: Paper tier stacking order (monitoring merged into prod upstream).
TIER_ORDER: Tuple[str, ...] = ("free", "beb", "mid", "prod")

#: Row of each tier label in a per-tier series: monitoring folds into prod.
_TIER_CODE = {**{tier: code for code, tier in enumerate(TIER_ORDER)},
              "monitoring": TIER_ORDER.index("prod")}

#: Column kinds of :func:`job_usage_integrals`'s result.
_INTEGRAL_KINDS = {"collection_id": "int", "tier": "str", "in_alloc": "bool",
                   "vertical_scaling": "str", "ncu_hours": "float",
                   "nmu_hours": "float"}


def merge_monitoring_tier(tiers: np.ndarray) -> np.ndarray:
    """Fold 'monitoring' labels into 'prod' (the paper's convention)."""
    out = tiers.copy()
    out[out == "monitoring"] = "prod"
    return out


def codes_of(labels: np.ndarray, codes: Mapping[str, int]) -> np.ndarray:
    """``codes[label]`` for every label, -1 for labels it lacks (one
    C-level pass: faster than one ``==`` mask per label)."""
    return np.fromiter(map(codes.get, labels, repeat(-1)), np.int64,
                       len(labels))


def empty_result(kinds: Mapping[str, str]) -> Table:
    """A zero-row table whose columns carry the declared ``kinds`` (a
    table built from ``[]`` literals would make every column float)."""
    return Table({name: empty_column(kind) for name, kind in kinds.items()})


def alloc_set_ids(trace: TraceDataset) -> np.ndarray:
    """Collection ids that are alloc sets (sorted, unique)."""
    ce = trace.collection_events
    kinds = ce.column("collection_type").values
    return np.unique(ce.column("collection_id").values[kinds == "alloc_set"])


def group_reduce(keys: np.ndarray, values: np.ndarray,
                 reducer=np.add.reduceat) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce ``values`` per unique key; returns (unique_keys, reduced).

    Keys come back sorted, and each key's values reach ``reducer`` in
    their input order.  Reducing row numbers with ``np.minimum.reduceat``
    or ``np.maximum.reduceat`` gives each key's first or last row.
    """
    order, starts = segments(keys)
    return keys[order[starts]], reducer(values[order], starts)


def _usage_integral_partial(table: Table) -> Tuple[np.ndarray, ...]:
    """Per-collection resource-hour sums (+ first-row metadata) of a
    usage table or of one store chunk of it."""
    ids = table.column("collection_id").values
    hours = table.column("duration").values / HOUR_SECONDS
    ncu = table.column("avg_cpu").values * hours
    nmu = table.column("avg_mem").values * hours
    order, starts = segments(ids)
    rep = order[starts]
    return (
        ids[rep],
        np.add.reduceat(ncu[order], starts),
        np.add.reduceat(nmu[order], starts),
        merge_monitoring_tier(table.column("tier").values[rep]),
        table.column("in_alloc").values[rep],
        table.column("vertical_scaling").values[rep],
    )


@obs.traced("analysis.job_usage_integrals")
def job_usage_integrals(trace: TraceDataset,
                        include_alloc_sets: bool = False) -> Table:
    """Per-collection resource-hour integrals (the section 7 quantity).

    Returns a table with ``collection_id``, ``tier``, ``in_alloc``,
    ``vertical_scaling``, ``ncu_hours`` and ``nmu_hours``.  Alloc sets
    are excluded by default because the paper's job-size analysis is
    about jobs.
    """
    iu = trace.instance_usage
    if len(iu) == 0:
        return empty_result(_INTEGRAL_KINDS)
    ids, ncu, nmu, tiers, in_alloc, scaling = _usage_integral_partial(iu)
    if not include_alloc_sets:
        keep = ~np.isin(ids, alloc_set_ids(trace))
    else:
        keep = np.ones(len(ids), dtype=bool)
    return Table({
        "collection_id": ids[keep],
        "tier": tiers[keep],
        "in_alloc": in_alloc[keep],
        "vertical_scaling": scaling[keep],
        "ncu_hours": ncu[keep],
        "nmu_hours": nmu[keep],
    })


def _tier_hour_sums(table: Table, column: str, n_hours: int,
                    allocation: bool) -> np.ndarray:
    """Resource-hours of ``column`` per (tier, hour), not yet scaled:
    one row per :data:`TIER_ORDER` tier.  One ``bincount`` over
    ``tier * n_hours + hour`` adds each bin's rows in row order, exactly
    as a per-tier mask and ``bincount`` would.  Rows of other tiers (and,
    for allocation, rows inside alloc sets) are dropped."""
    values = table.column(column).values * (table.column("duration").values
                                            / HOUR_SECONDS)
    hour = (table.column("start_time").values / HOUR_SECONDS).astype(np.int64)
    hour = np.clip(hour, 0, n_hours - 1)
    code = codes_of(table.column("tier").values, _TIER_CODE)
    keep = code >= 0
    if allocation:
        keep &= ~table.column("in_alloc").values
    sums = np.bincount(code[keep] * n_hours + hour[keep], weights=values[keep],
                       minlength=len(TIER_ORDER) * n_hours)
    return sums.reshape(len(TIER_ORDER), n_hours)


@obs.traced("analysis.hourly_tier_series")
def hourly_tier_series(trace: TraceDataset, resource: str = "cpu",
                       quantity: str = "usage") -> Dict[str, np.ndarray]:
    """Per-tier hourly series as fractions of cell capacity (figures 2/4).

    ``quantity`` is ``"usage"`` (average observed usage) or
    ``"allocation"`` (sum of limits).  For allocation, usage rows of
    tasks running *inside* alloc sets are excluded — their reservation is
    already counted through the alloc instance's limit, and counting both
    would double-book the machine.

    Returns {tier: array of length horizon_hours}.
    """
    if resource not in ("cpu", "mem"):
        raise ValueError(f"resource must be 'cpu' or 'mem', got {resource!r}")
    if quantity not in ("usage", "allocation"):
        raise ValueError(f"quantity must be 'usage' or 'allocation', got {quantity!r}")
    n_hours = int(np.ceil(trace.horizon / HOUR_SECONDS))
    capacity = trace.capacity_cpu if resource == "cpu" else trace.capacity_mem
    out = {tier: np.zeros(n_hours) for tier in TIER_ORDER}
    iu = trace.instance_usage
    if len(iu) == 0 or capacity <= 0:
        return out

    column = {"usage": {"cpu": "avg_cpu", "mem": "avg_mem"},
              "allocation": {"cpu": "limit_cpu", "mem": "limit_mem"}}[quantity][resource]
    sums = _tier_hour_sums(iu, column, n_hours, quantity == "allocation")
    return dict(zip(TIER_ORDER, sums / capacity))


def average_tier_fractions(trace: TraceDataset, resource: str = "cpu",
                           quantity: str = "usage") -> Dict[str, float]:
    """Whole-trace average of the hourly tier series (figures 3/5 bars)."""
    series = hourly_tier_series(trace, resource=resource, quantity=quantity)
    return {tier: float(np.mean(values)) for tier, values in series.items()}


def collection_metadata(trace: TraceDataset) -> Table:
    """One row per collection from its first SUBMIT event (id, tier,
    type, ...), in the order the collections were first submitted."""
    ce = trace.collection_events
    submits = np.flatnonzero(ce.column("type").values == "SUBMIT")
    _, first = group_reduce(ce.column("collection_id").values[submits],
                            submits, np.minimum.reduceat)
    return ce.take(np.sort(first))


# -- store-aware variants -----------------------------------------------------
#
# These take a repro.store.TraceStore and compute the same results as the
# in-memory reducers above, but one chunk at a time: projection pushdown
# keeps the decode narrow, per-chunk partials are picklable so they can
# fan out over ``workers`` processes, and nothing ever holds the full
# table.  The per-chunk map functions live at module scope (not closures)
# because worker processes import them by name.

def alloc_set_ids_store(store, workers: Optional[int] = None) -> np.ndarray:
    """Store-backed :func:`alloc_set_ids`: pushes the alloc-set filter
    and a two-column projection into the scan."""
    # Imported here, not at module top: repro.store's package init pulls
    # in repro.trace, whose sample module imports this module.
    from repro.store.predicates import Compare

    table = (store.scan("collection_events")
                  .where(Compare("collection_type", "==", "alloc_set"))
                  .select("collection_id")
                  .to_table(workers=workers))
    return np.unique(table.column("collection_id").values)


@obs.traced("analysis.job_usage_integrals_store")
def job_usage_integrals_store(store, include_alloc_sets: bool = False,
                              workers: Optional[int] = None) -> Table:
    """Store-backed :func:`job_usage_integrals` (identical output)."""
    scan = store.scan("instance_usage").select(
        "collection_id", "duration", "avg_cpu", "avg_mem",
        "tier", "in_alloc", "vertical_scaling")
    partials = scan.map_reduce(_usage_integral_partial, workers=workers)
    partials = [p for p in partials if len(p[0])]
    if not partials:
        return empty_result(_INTEGRAL_KINDS)
    ids = np.concatenate([p[0] for p in partials])
    ncu = np.concatenate([p[1] for p in partials])
    nmu = np.concatenate([p[2] for p in partials])
    tiers = np.concatenate([p[3].astype(object) for p in partials])
    in_alloc = np.concatenate([p[4] for p in partials])
    scaling = np.concatenate([p[5].astype(object) for p in partials])

    order, starts = segments(ids)
    rep = order[starts]  # earliest chunk wins, matching row-order semantics
    unique_ids = ids[rep]

    if not include_alloc_sets:
        keep = ~np.isin(unique_ids, alloc_set_ids_store(store, workers=workers))
    else:
        keep = np.ones(len(unique_ids), dtype=bool)
    return Table({
        "collection_id": unique_ids[keep],
        "tier": tiers[rep][keep],
        "in_alloc": in_alloc[rep][keep],
        "vertical_scaling": scaling[rep][keep],
        "ncu_hours": np.add.reduceat(ncu[order], starts)[keep],
        "nmu_hours": np.add.reduceat(nmu[order], starts)[keep],
    })


@obs.traced("analysis.hourly_tier_series_store")
def hourly_tier_series_store(store, resource: str = "cpu",
                             quantity: str = "usage",
                             workers: Optional[int] = None) -> Dict[str, np.ndarray]:
    """Store-backed :func:`hourly_tier_series` (identical output)."""
    if resource not in ("cpu", "mem"):
        raise ValueError(f"resource must be 'cpu' or 'mem', got {resource!r}")
    if quantity not in ("usage", "allocation"):
        raise ValueError(f"quantity must be 'usage' or 'allocation', got {quantity!r}")
    meta = store.meta
    n_hours = int(np.ceil(meta["horizon"] / HOUR_SECONDS))
    capacity = meta["capacity_cpu"] if resource == "cpu" else meta["capacity_mem"]
    out = {tier: np.zeros(n_hours) for tier in TIER_ORDER}
    if store.rows("instance_usage") == 0 or capacity <= 0:
        return out
    column = {"usage": {"cpu": "avg_cpu", "mem": "avg_mem"},
              "allocation": {"cpu": "limit_cpu", "mem": "limit_mem"}}[quantity][resource]
    scan = store.scan("instance_usage").select(
        "start_time", "duration", "tier", "in_alloc", column)
    map_fn = functools.partial(_tier_hour_sums, column=column,
                               n_hours=n_hours,
                               allocation=quantity == "allocation")
    sums = scan.map_reduce(map_fn, operator.add, workers=workers)
    if sums is not None:
        out = dict(zip(TIER_ORDER, sums / capacity))
    return out
