"""Lazy scans: projection + predicate pushdown over a chunked store.

A :class:`Scan` is a description — table, selected columns, predicate —
that decodes nothing until executed.  Execution consults the manifest's
per-chunk min/max statistics first: chunks the predicate provably cannot
match are *skipped* without opening their files, and only the columns
the scan actually needs (selected ∪ referenced by the predicate) are
decoded from the survivors.  :class:`ScanStats` records exactly how much
work pruning saved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.store.executor import (
    Agg,
    ChunkTask,
    merge_partials,
    process_table,
    run_chunk_task,
)
from repro.store.predicates import And, Predicate
from repro.table.table import Table, concat
from repro.util.errors import SchemaError


@dataclass
class ScanStats:
    """What one scan execution actually did (and avoided)."""

    chunks_total: int = 0
    chunks_skipped: int = 0
    chunks_decoded: int = 0
    rows_decoded: int = 0
    rows_matched: int = 0

    def __str__(self) -> str:
        return (f"chunks {self.chunks_decoded}/{self.chunks_total} decoded "
                f"({self.chunks_skipped} skipped), rows {self.rows_matched}"
                f"/{self.rows_decoded} matched")


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
        known = self._store.manifest.column_names(self._table)
        for name in columns:
            if name not in known:
                raise SchemaError(
                    f"table {self._table!r} has no column {name!r}; "
                    f"available: {known}"
                )
        return Scan(self._store, self._table, tuple(columns), self._predicate)

    def where(self, predicate: Predicate) -> "Scan":
        """AND another predicate onto the scan (filter pushdown)."""
        combined = predicate if self._predicate is None \
            else And(self._predicate, predicate)
        return Scan(self._store, self._table, self._columns, combined)

    # -- planning ------------------------------------------------------------

    @property
    def table(self) -> str:
        return self._table

    @property
    def predicate(self) -> Optional[Predicate]:
        return self._predicate

    def output_columns(self) -> List[str]:
        return list(self._columns) if self._columns is not None \
            else self._store.manifest.column_names(self._table)

    def _decode_columns(self, extra: Sequence[str] = ()) -> List[str]:
        """Selected columns ∪ predicate columns ∪ ``extra``, schema order."""
        needed = set(self.output_columns()) | set(extra)
        if self._predicate is not None:
            needed |= self._predicate.columns()
        return [c for c in self._store.manifest.column_names(self._table)
                if c in needed]

    def surviving_chunks(self) -> List[dict]:
        """Manifest entries of chunks the predicate cannot rule out."""
        chunks = self._store.manifest.chunks(self._table)
        if self._predicate is None:
            return list(chunks)
        return [c for c in chunks
                if self._predicate.maybe_matches(c.get("stats", {}))]

    # -- execution -----------------------------------------------------------

    def _execute(self, aggs_or_fn, keep_columns: Tuple[str, ...],
                 workers: Optional[int]) -> List[Tuple[object, int, int]]:
        with obs.span("store.scan"):
            return self._execute_inner(aggs_or_fn, keep_columns, workers)

    def _execute_inner(self, aggs_or_fn, keep_columns: Tuple[str, ...],
                       workers: Optional[int]) -> List[Tuple[object, int, int]]:
        chunks = self._store.manifest.chunks(self._table)
        survivors = self.surviving_chunks()
        stats = ScanStats(chunks_total=len(chunks),
                          chunks_skipped=len(chunks) - len(survivors))
        decode = tuple(self._decode_columns())
        if obs.pool_size(workers, len(survivors)) > 1:
            # Pooled chunks decode in the workers; the chunk cache is
            # this process's, so only the inline path reads through it.
            tasks: List[ChunkTask] = [
                (str(self._store.chunk_path(c["file"])), decode,
                 self._predicate, keep_columns, aggs_or_fn)
                for c in survivors
            ]
            results = list(obs.fan_out(run_chunk_task, tasks, workers,
                                       section="store"))
        else:
            results = []
            for c in survivors:
                with obs.span("store.chunk"):
                    table = self._store.load_chunk(self._table, c["file"],
                                                   decode)
                    results.append(process_table(table, self._predicate,
                                                 keep_columns, aggs_or_fn))
        for _, rows_decoded, rows_matched in results:
            stats.chunks_decoded += 1
            stats.rows_decoded += rows_decoded
            stats.rows_matched += rows_matched
        self.last_stats = stats
        registry = obs.get_registry()
        registry.inc("store.scans")
        registry.inc("store.chunks_total", stats.chunks_total)
        registry.inc("store.chunks_skipped", stats.chunks_skipped)
        registry.inc("store.chunks_decoded", stats.chunks_decoded)
        registry.inc("store.rows_decoded", stats.rows_decoded)
        registry.inc("store.rows_matched", stats.rows_matched)
        return results

    def to_table(self, workers: Optional[int] = None) -> Table:
        """Materialize the scan as a single in-memory :class:`Table`."""
        keep = tuple(self.output_columns())
        results = self._execute(None, keep, workers)
        parts = [payload for payload, _, _ in results]
        if not parts:
            return self._store.empty_table(self._table, keep)
        return concat(parts)

    def aggregate(self, *aggs: Agg, workers: Optional[int] = None) -> Dict[str, object]:
        """Evaluate aggregates with per-chunk partials merged at the end."""
        if not aggs:
            raise ValueError("aggregate() needs at least one Agg")
        if self._predicate is None and all(a.kind == "count" for a in aggs):
            # Pure counts over an unfiltered table come straight from the
            # manifest: no chunk is opened at all.
            chunks = self._store.manifest.chunks(self._table)
            self.last_stats = ScanStats(chunks_total=len(chunks))
            rows = self._store.manifest.rows(self._table)
            obs.inc("store.scans_manifest_only")
            return {a.alias: rows for a in aggs}
        results = self._execute(tuple(aggs), (), workers)
        return merge_partials([payload for payload, _, _ in results], aggs)

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
        results = self._execute(map_fn, keep, workers)
        payloads = [payload for payload, _, _ in results]
        if reduce_fn is None:
            return payloads
        return functools.reduce(reduce_fn, payloads) if payloads else None
