"""Lazy scans: projection + predicate pushdown over a chunked store.

A :class:`Scan` is a description — table, selected columns, predicate —
that decodes nothing until executed.  Execution first asks the
predicate for one verdict per chunk from the manifest's statistics
(:meth:`Predicate.verdicts`):

* no row can match — the chunk is *skipped* without opening its file;
* every row matches — nothing is filtered: the chunk decodes only the
  columns the scan returns or aggregates, and a count-only aggregate is
  *answered* with the chunk's manifest row count, file unopened;
* otherwise — the chunk decodes those columns and the residual
  predicate's, and applies the residual's mask.

Each chunk that is read becomes one
:data:`~repro.store.executor.ChunkTask`, run by
:func:`~repro.store.executor.run_chunk_task` inline or in a pool; that
task is the only place a chunk is decoded, and nothing decoded outlives
the scan.  Partials and tables come back in chunk order, whichever way
a chunk was answered.  :class:`ScanStats` records exactly how much work
the statistics saved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.store.executor import (
    Agg,
    ChunkTask,
    merge_partials,
    run_chunk_task,
)
from repro.store.predicates import And, Predicate
from repro.table.table import Table, concat
from repro.util.errors import SchemaError


@dataclass
class ScanStats:
    """What one scan execution actually did (and avoided):
    ``chunks_total == chunks_skipped + chunks_answered + chunks_decoded``."""

    chunks_total: int = 0
    chunks_skipped: int = 0
    chunks_answered: int = 0
    chunks_decoded: int = 0
    rows_decoded: int = 0
    rows_matched: int = 0

    def __str__(self) -> str:
        return (f"chunks {self.chunks_decoded}/{self.chunks_total} decoded "
                f"({self.chunks_skipped} skipped), {self.chunks_answered} "
                f"answered, rows {self.rows_matched}/{self.rows_decoded} "
                f"matched")


class Scan:
    """An immutable, composable scan description over one store table."""

    def __init__(self, store, table: str,
                 columns: Optional[Tuple[str, ...]] = None,
                 predicate: Optional[Predicate] = None):
        self._store = store
        self._table = table
        self._columns = columns
        self._predicate = predicate
        #: Statistics of the most recent execution of this scan object.
        self.last_stats = ScanStats()

    # -- composition ---------------------------------------------------------

    def select(self, *columns: str) -> "Scan":
        """Restrict the scan to the named columns (projection pushdown)."""
        self._check_columns(columns)
        return Scan(self._store, self._table, tuple(columns), self._predicate)

    def where(self, predicate: Predicate) -> "Scan":
        """AND another predicate onto the scan (filter pushdown).

        Raises :class:`~repro.util.errors.QueryError` when the predicate
        orders a column against a value of another kind
        (:meth:`Predicate.check_kinds`).
        """
        predicate.check_kinds(self._store.manifest.column_kinds(self._table))
        combined = predicate if self._predicate is None \
            else And(self._predicate, predicate)
        return Scan(self._store, self._table, self._columns, combined)

    # -- planning ------------------------------------------------------------

    def _check_columns(self, columns: Iterable[str]) -> None:
        known = self._store.manifest.column_names(self._table)
        for name in columns:
            if name not in known:
                raise SchemaError(
                    f"table {self._table!r} has no column {name!r}; "
                    f"available: {known}"
                )

    def output_columns(self) -> List[str]:
        return list(self._columns) if self._columns is not None \
            else self._store.manifest.column_names(self._table)

    def plan(self) -> List[Tuple[dict, Optional[Predicate]]]:
        """``(manifest entry, residual predicate or None)`` for each chunk
        the statistics cannot rule out, in chunk order; ``None`` means
        every row matches."""
        chunks = self._store.manifest.chunks(self._table)
        if self._predicate is None:
            return [(chunk, None) for chunk in chunks]
        verdicts = self._predicate.verdicts(
            self._store.manifest.bounds(self._table), len(chunks))
        return [(chunk, None if verdict is True else verdict)
                for chunk, verdict in zip(chunks, verdicts)
                if verdict is not False]

    # -- execution -----------------------------------------------------------

    def _execute(self, reducer, needed: Sequence[str],
                 keep_columns: Tuple[str, ...],
                 workers: Optional[int]) -> List[object]:
        with obs.span("store.scan"):
            return self._execute_inner(reducer, needed, keep_columns, workers)

    def _execute_inner(self, reducer, needed: Sequence[str],
                       keep_columns: Tuple[str, ...],
                       workers: Optional[int]) -> List[object]:
        """The payload of every surviving chunk, in chunk order.  A chunk
        needs ``needed`` plus its residual's columns; a count-only
        ``reducer`` over a chunk without residual is its row count."""
        manifest = self._store.manifest
        chunks = manifest.chunks(self._table)
        plan = self.plan()
        schema = manifest.schema(self._table)
        counts_only = isinstance(reducer, tuple) and all(
            agg.kind == "count" for agg in reducer)
        decode_for: Dict[int, Tuple[str, ...]] = {}
        payloads: List[object] = []
        tasks: List[ChunkTask] = []
        for chunk, residual in plan:
            if residual is None and counts_only:
                payloads.append({agg.alias: chunk["rows"] for agg in reducer})
                continue
            decode = decode_for.get(id(residual))
            if decode is None:
                wanted = set(needed)
                if residual is not None:
                    wanted |= residual.columns()
                decode = decode_for[id(residual)] = tuple(
                    name for name, _ in schema if name in wanted)
            payloads.append(None)
            tasks.append((str(self._store.chunk_path(chunk["file"])), schema,
                          chunk["rows"], decode, residual, keep_columns,
                          reducer))
        if obs.pool_size(workers, len(tasks)) > 1:
            results = list(obs.fan_out(run_chunk_task, tasks, workers,
                                       section="store"))
        else:
            # Not through fan_out: its inline path scopes a fresh
            # registry per item, which cost 19% more trace-queries CPU
            # (EXPERIMENTS.md, "No chunk cache").
            results = [run_chunk_task(task) for task in tasks]
        stats = ScanStats(chunks_total=len(chunks),
                          chunks_skipped=len(chunks) - len(plan),
                          chunks_answered=len(plan) - len(tasks),
                          chunks_decoded=len(tasks))
        decoded = iter(results)
        for i, payload in enumerate(payloads):
            if payload is None:
                payloads[i], rows_decoded, rows_matched = next(decoded)
                stats.rows_decoded += rows_decoded
                stats.rows_matched += rows_matched
        self.last_stats = stats
        registry = obs.get_registry()
        registry.inc("store.scans")
        registry.inc("store.chunks_total", stats.chunks_total)
        registry.inc("store.chunks_skipped", stats.chunks_skipped)
        registry.inc("store.chunks_answered", stats.chunks_answered)
        registry.inc("store.chunks_decoded", stats.chunks_decoded)
        registry.inc("store.rows_decoded", stats.rows_decoded)
        registry.inc("store.rows_matched", stats.rows_matched)
        return payloads

    def to_table(self, workers: Optional[int] = None) -> Table:
        """Materialize the scan as a single in-memory :class:`Table`."""
        keep = tuple(self.output_columns())
        parts = self._execute(None, keep, keep, workers)
        if not parts:
            return self._store.empty_table(self._table, keep)
        return concat(parts)

    def aggregate(self, *aggs: Agg, workers: Optional[int] = None) -> Dict[str, object]:
        """Evaluate aggregates with per-chunk partials merged at the end.

        A chunk decodes only the aggregates' columns and its residual
        predicate's; the selection does not matter here."""
        if not aggs:
            raise ValueError("aggregate() needs at least one Agg")
        needed = sorted(set().union(*(agg.columns() for agg in aggs)))
        self._check_columns(needed)
        partials = self._execute(tuple(aggs), needed, (), workers)
        return merge_partials(partials, aggs)

    def count(self, workers: Optional[int] = None) -> int:
        return self.aggregate(Agg("count"), workers=workers)["count"]

    def map_reduce(self, map_fn: Callable[[Table], object],
                   reduce_fn: Optional[Callable[[object, object], object]] = None,
                   workers: Optional[int] = None):
        """Apply a picklable ``map_fn`` to each surviving chunk's filtered,
        projected rows; combine payloads pairwise with ``reduce_fn`` (or
        return the list of payloads in chunk order when it is ``None``).

        This is the escape hatch for reductions richer than the built-in
        aggregates — e.g. the store-aware analysis reducers group and bin
        inside ``map_fn`` and merge partial vectors in ``reduce_fn``.
        """
        keep = tuple(self.output_columns())
        payloads = self._execute(map_fn, keep, keep, workers)
        if reduce_fn is None:
            return payloads
        return functools.reduce(reduce_fn, payloads) if payloads else None
