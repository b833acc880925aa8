"""Parallel scan -> filter -> partial-aggregate executor.

The BigQuery stand-in's execution model: every chunk that must be read
(after the manifest's verdicts, see :mod:`repro.store.scan`) becomes
one independent task — decode the needed columns, apply the residual
predicate's mask, compute *partial* aggregates — and partials merge
associatively at the end.  :func:`run_chunk_task` is the
unit of work that :func:`repro.obs.fan_out` ships to worker processes
when a scan runs with ``workers > 1``; everything in a task (chunk path,
schema and row count, predicate, aggregate specs) is plain picklable
data.

Supported aggregates: ``count``, ``sum``, ``min``, ``max``, ``mean``
(merged as sum+count pairs) and ``histogram`` (fixed edges, counts merge
by addition — reusing :func:`repro.stats.histogram.histogram`).
"""

from __future__ import annotations

import numbers
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.stats.histogram import histogram
from repro.store.format import read_chunk
from repro.store.predicates import Predicate
from repro.table.table import Table
from repro.util.errors import QueryError, SchemaError

AGG_KINDS = ("count", "sum", "min", "max", "mean", "histogram")


class Agg:
    """One aggregate spec: ``kind`` over ``column`` (count needs none)."""

    def __init__(self, kind: str, column: Optional[str] = None,
                 edges: Optional[Sequence[float]] = None,
                 alias: Optional[str] = None):
        if kind not in AGG_KINDS:
            raise QueryError(f"unknown aggregate {kind!r}; use one of {AGG_KINDS}")
        if kind != "count" and column is None:
            raise QueryError(f"aggregate {kind!r} needs a column")
        self.edges = tuple(edges) if edges is not None else None
        if (kind == "histogram" or edges is not None) and (
                self.edges is None or len(self.edges) < 2
                or not all(isinstance(e, numbers.Real) for e in self.edges)
                or any(not a < b for a, b in zip(self.edges, self.edges[1:]))):
            # Checked here, not in the chunk tasks: a pooled scan would
            # otherwise fail in a worker after every chunk was dispatched.
            raise QueryError("histogram edges must be at least two strictly "
                             f"increasing numbers, got {edges!r}")
        self.kind = kind
        self.column = column
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

#: One task: (chunk path, the table's ``(name, kind)`` schema, the
#: chunk's row count, columns to decode, the residual predicate or None
#: when every row matches, columns to keep after filtering, reducer).
#: Schema and row count come from the manifest, which workers never
#: open.  The reducer is a tuple of Agg specs, a picklable callable
#: ``Table -> payload``, or None (return the filtered projection itself).
ChunkTask = Tuple[str, Tuple[Tuple[str, str], ...], int, Tuple[str, ...],
                  Optional[Predicate], Tuple[str, ...], object]


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
    path, schema, rows, decode_columns, predicate, keep_columns, reducer = task
    with obs.span("store.chunk"):
        return process_table(read_chunk(path, schema, rows, decode_columns),
                             predicate, keep_columns, reducer)
