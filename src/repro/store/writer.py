"""Write a :class:`TraceDataset` as a chunked columnar store.

Each table is split into row groups of ``chunk_rows`` rows; every chunk
is one binary file (see :mod:`repro.store.format`) and the manifest
records its per-column min/max statistics and float NaN counts.  The
whole store is staged in a temp directory and renamed into place
atomically.

Every table with a time column is stably sorted by it before chunking
(:data:`DEFAULT_CLUSTER_BY`), so each chunk gets tight time bounds,
which is what makes time-window pushdown effective.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro import obs
from repro.store.format import write_chunk
from repro.store.manifest import Manifest, chunk_stats
from repro.table.table import Table
from repro.trace.schema import TIME_COLUMNS, trace_meta
from repro.util.fs import atomic_directory

#: Default rows per chunk.  Small enough that a 48-hour cell yields tens
#: of chunks (so pruning has something to skip), large enough that the
#: per-chunk overhead stays negligible.
DEFAULT_CHUNK_ROWS = 8192

#: Clustering: the event and usage tables are stably sorted by
#: their time column before chunking, exactly like the clustered
#: BigQuery tables the 2019 trace ships as.  The simulator emits usage
#: rows grouped per instance (each group spanning the whole horizon), so
#: *without* this sort every chunk's time range covers the full trace
#: and time-window pushdown can never skip anything.  Derived from the
#: canonical schema: every table with a time column clusters on it.
DEFAULT_CLUSTER_BY: Dict[str, str] = dict(TIME_COLUMNS)


def write_store(trace, directory: Union[str, os.PathLike],
                chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
    """Persist ``trace`` (a :class:`TraceDataset`) under ``directory``.

    Each table listed in :data:`DEFAULT_CLUSTER_BY` is stably sorted by
    its column before chunking (BigQuery-style clustering); tables
    without their listed column, and unlisted tables, keep their row
    order.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    with obs.span("store.write"), atomic_directory(directory) as tmp:
        manifest = Manifest.new(trace_meta(trace), chunk_rows)
        for name, table in trace.tables.items():
            key = DEFAULT_CLUSTER_BY.get(name)
            if key is not None and key in table and len(table) > 1:
                table = table.sort(key)
            _write_table(manifest, tmp, name, table, chunk_rows)
        manifest.save(tmp)


def _write_table(manifest: Manifest, root: Path, name: str, table: Table,
                 chunk_rows: int) -> None:
    columns = [{"name": n, "kind": table.column(n).kind}
               for n in table.column_names]
    manifest.add_table(name, columns)
    if len(table) == 0:
        return
    table_dir = root / name
    table_dir.mkdir()
    n_chunks = (len(table) + chunk_rows - 1) // chunk_rows
    for i in range(n_chunks):
        lo = i * chunk_rows
        hi = min(lo + chunk_rows, len(table))
        chunk = table.take(np.arange(lo, hi))
        file = manifest.add_chunk(name, len(chunk), chunk_stats(chunk))
        nbytes = write_chunk(chunk, root / file)
        registry = obs.get_registry()
        registry.inc("store.chunks_written")
        registry.inc("store.bytes_written", nbytes)
        registry.inc("store.rows_written", len(chunk))
