"""Parallel scan -> filter -> partial-aggregate executor.

The BigQuery stand-in's execution model: every surviving chunk (after
manifest pruning) becomes one independent task — decode the needed
columns, apply the predicate mask, compute *partial* aggregates — and
partials merge associatively at the end.  Tasks fan out over a
``multiprocessing`` pool when ``workers > 1``; everything shipped to a
worker (chunk path, predicate, aggregate specs) is plain picklable data.

Supported aggregates: ``count``, ``sum``, ``min``, ``max``, ``mean``
(merged as sum+count pairs) and ``histogram`` (fixed edges, counts merge
by addition — reusing :func:`repro.stats.histogram.histogram`).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.stats.histogram import histogram
from repro.store.format import read_chunk
from repro.store.predicates import Predicate
from repro.table.table import Table
from repro.util.errors import SchemaError

AGG_KINDS = ("count", "sum", "min", "max", "mean", "histogram")


class Agg:
    """One aggregate spec: ``kind`` over ``column`` (count needs none)."""

    def __init__(self, kind: str, column: Optional[str] = None,
                 edges: Optional[Sequence[float]] = None,
                 alias: Optional[str] = None):
        if kind not in AGG_KINDS:
            raise ValueError(f"unknown aggregate {kind!r}; use one of {AGG_KINDS}")
        if kind != "count" and column is None:
            raise ValueError(f"aggregate {kind!r} needs a column")
        if kind == "histogram" and edges is None:
            raise ValueError("histogram aggregate needs bucket edges")
        self.kind = kind
        self.column = column
        self.edges = tuple(edges) if edges is not None else None
        self.alias = alias or (kind if column is None else f"{kind}({column})")

    def columns(self) -> Set[str]:
        return set() if self.column is None else {self.column}

    def __repr__(self) -> str:
        return f"Agg({self.alias})"


# -- partial aggregation ------------------------------------------------------

def partial_aggregate(table: Table, aggs: Sequence[Agg]) -> Dict[str, object]:
    """Aggregate one chunk's (already filtered) rows into partials."""
    out: Dict[str, object] = {}
    for agg in aggs:
        if agg.kind == "count":
            out[agg.alias] = len(table)
            continue
        column = table.column(agg.column)
        if column.kind == "str" and agg.kind in ("sum", "mean", "histogram"):
            # numpy would happily "sum" an object array by concatenating
            # every string into one giant ValueError; fail cleanly instead.
            raise SchemaError(
                f"aggregate {agg.kind!r} needs a numeric column, and "
                f"{agg.column!r} is a string column"
            )
        values = column.values
        if agg.kind == "sum":
            out[agg.alias] = float(values.sum()) if len(values) else 0.0
        elif agg.kind == "min":
            out[agg.alias] = values.min() if len(values) else None
        elif agg.kind == "max":
            out[agg.alias] = values.max() if len(values) else None
        elif agg.kind == "mean":
            out[agg.alias] = (float(values.sum()) if len(values) else 0.0,
                              len(values))
        else:  # histogram
            out[agg.alias] = histogram(values, agg.edges) if len(values) \
                else np.zeros(len(agg.edges) - 1, dtype=np.int64)
    return out


def merge_partials(partials: Sequence[Dict[str, object]],
                   aggs: Sequence[Agg]) -> Dict[str, object]:
    """Associatively merge per-chunk partials and finalize each aggregate."""
    out: Dict[str, object] = {}
    for agg in aggs:
        parts = [p[agg.alias] for p in partials]
        if agg.kind == "count":
            out[agg.alias] = int(sum(parts))
        elif agg.kind == "sum":
            out[agg.alias] = float(sum(parts))
        elif agg.kind in ("min", "max"):
            seen = [p for p in parts if p is not None]
            if not seen:
                out[agg.alias] = None
            else:
                out[agg.alias] = min(seen) if agg.kind == "min" else max(seen)
        elif agg.kind == "mean":
            total = float(sum(s for s, _ in parts))
            count = int(sum(n for _, n in parts))
            out[agg.alias] = total / count if count else float("nan")
        else:  # histogram
            counts = np.zeros(len(agg.edges) - 1, dtype=np.int64)
            for p in parts:
                counts = counts + np.asarray(p)
            out[agg.alias] = counts
    return out


# -- chunk tasks --------------------------------------------------------------

#: One task: (chunk path, columns to decode, predicate or None, columns
#: to keep after filtering, reducer).  The reducer is a tuple of Agg
#: specs, a picklable callable ``Table -> payload``, or None (return the
#: filtered projection itself).
ChunkTask = Tuple[str, Tuple[str, ...], Optional[Predicate],
                  Tuple[str, ...], object]


def process_table(table: Table, predicate: Optional[Predicate],
                  keep_columns: Tuple[str, ...],
                  reducer) -> Tuple[object, int, int]:
    """Filter + reduce one decoded chunk.

    Returns ``(payload, rows_decoded, rows_matched)`` where the payload
    is an aggregate-partial dict (tuple-of-Agg reducer), the callable's
    return value, or the filtered projected :class:`Table` (``None``).
    """
    rows_decoded = len(table)
    if predicate is not None:
        table = table.filter(predicate.mask(table))
    rows_matched = len(table)
    if reducer is None:
        return table.select(*keep_columns), rows_decoded, rows_matched
    if callable(reducer):
        if keep_columns:
            table = table.select(*keep_columns)
        return reducer(table), rows_decoded, rows_matched
    # Aggregates run on the filtered chunk directly; projecting first
    # would turn a count-only scan into a zero-column (zero-length) table.
    return partial_aggregate(table, reducer), rows_decoded, rows_matched


def run_chunk_task(task: ChunkTask) -> Tuple[object, int, int]:
    """Decode, filter, and reduce one chunk (the worker-process entry)."""
    path, decode_columns, predicate, keep_columns, reducer = task
    with obs.span("store.chunk"):
        return process_table(read_chunk(path, decode_columns),
                             predicate, keep_columns, reducer)


def traced_chunk_task(task: ChunkTask) -> Tuple[Tuple[object, int, int],
                                                obs.Snapshot]:
    """Worker-side wrapper: run one chunk task inside a *fresh* scoped
    registry and ship its metrics home alongside the payload.

    Under ``fork`` start methods the worker begins with a copy of the
    parent's registry; recording into that copy and snapshotting it
    wholesale would re-count everything the parent had already recorded.
    The fresh scoped registry makes the returned snapshot exactly the
    delta of this one task, so the parent can merge each snapshot once —
    no double counts, no drops (see the fork-safety test).
    """
    with obs.scoped_registry() as registry:
        result = run_chunk_task(task)
    return result, registry.snapshot()


def run_tasks(tasks: Sequence[ChunkTask],
              workers: Optional[int] = None) -> List[Tuple[object, int, int]]:
    """Run chunk tasks, fanning out over processes when it pays off.

    ``workers=None`` or ``<= 1`` runs inline; otherwise a pool of
    ``min(workers, len(tasks))`` processes maps over the tasks.  Results
    always come back in task order.  Worker-side obs metrics are merged
    into this process's registry in task order (exactly once per task),
    so counters agree between serial and parallel runs.
    """
    if not tasks:
        return []
    if workers is None or workers <= 1 or len(tasks) == 1:
        return [run_chunk_task(task) for task in tasks]
    n = min(workers, len(tasks))
    chunksize = max(1, len(tasks) // (n * 4))
    obs.gauge("store.pool_workers", n)
    obs.inc("store.parallel_batches")
    with multiprocessing.Pool(processes=n) as pool:
        traced = pool.map(traced_chunk_task, tasks, chunksize=chunksize)
    registry = obs.get_registry()
    for _, snapshot in traced:
        registry.merge_snapshot(snapshot)
    return [result for result, _ in traced]


def default_workers() -> int:
    """A sensible pool size: all-but-one CPU, at least one."""
    return max(1, (multiprocessing.cpu_count() or 2) - 1)
