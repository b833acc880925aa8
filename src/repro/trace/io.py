"""Trace persistence: CSV-per-table directories and chunked stores.

Two on-disk formats share one API:

* ``format="csv"`` — one CSV per table plus a JSON metadata sidecar (the
  2011 trace's native shape).  Human-readable, diff-able, slow at scale.
* ``format="store"`` — the chunked columnar layout of
  :mod:`repro.store`: row-group chunks with manifest statistics,
  predicate-pushdown scans, and parallel aggregation (the 2019 trace's
  BigQuery shape).  ``load_trace`` returns a *lazily* backed dataset for
  this format — tables decode on first access.

Both writers stage into a temp directory and rename atomically, so a
killed run never leaves a half-written trace behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Union

from repro.store.manifest import MANIFEST_FILE
from repro.store.reader import TraceStore
from repro.store.writer import DEFAULT_CHUNK_ROWS, write_store
from repro.table import read_csv, write_csv
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.trace.schema import check_meta, trace_meta
from repro.util.errors import SchemaError
from repro.util.fs import atomic_directory

_META_FILE = "metadata.json"
FORMATS = ("csv", "store")


def save_trace(trace: TraceDataset, directory: Union[str, os.PathLike],
               format: str = "csv",
               chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
    """Write ``trace`` under ``directory`` (replaced atomically).

    The whole trace is staged in a hidden sibling directory and renamed
    into place on success, so readers only ever see complete traces.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; use one of {FORMATS}")
    if format == "store":
        write_store(trace, directory, chunk_rows=chunk_rows)
        return
    with atomic_directory(directory) as tmp:
        for name, table in trace.tables.items():
            write_csv(table, tmp / f"{name}.csv")
        with open(tmp / _META_FILE, "w") as f:
            json.dump(trace_meta(trace), f, indent=2)


def detect_format(directory: Union[str, os.PathLike]) -> Optional[str]:
    """Which trace format lives at ``directory`` (None when neither)."""
    path = Path(directory)
    if (path / MANIFEST_FILE).exists():
        return "store"
    if (path / _META_FILE).exists():
        return "csv"
    return None


def load_trace(directory: Union[str, os.PathLike],
               format: Optional[str] = None) -> TraceDataset:
    """Read a trace previously written by :func:`save_trace`.

    The format is auto-detected unless forced.  Store-backed traces come
    back as a lazy :class:`~repro.store.reader.StoreBackedTraceDataset`
    (tables decode on first access); CSV traces load eagerly.
    """
    path = Path(directory)
    if format is None:
        format = detect_format(path)
        if format is None:
            raise SchemaError(
                f"no trace at {path} (neither {_META_FILE} nor {MANIFEST_FILE})"
            )
    elif format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; use one of {FORMATS}")
    if format == "store":
        return TraceStore(path).to_dataset()

    meta_path = path / _META_FILE
    if not meta_path.exists():
        raise SchemaError(f"no trace metadata at {meta_path}")
    try:
        meta = json.loads(meta_path.read_bytes())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise SchemaError(f"{meta_path} is not JSON: {exc}") from None
    check_meta(meta, meta_path)
    tables = {}
    problems: List[str] = []
    for name, columns in SCHEMA_2019.items():
        csv_path = path / f"{name}.csv"
        if not csv_path.exists():
            problems.append(f"missing table file {csv_path.name}")
            continue
        table = read_csv(csv_path)
        if table.column_names != columns:
            problems.append(
                f"{csv_path.name}: columns {table.column_names} != schema {columns}"
            )
            continue
        tables[name] = table
    if problems:
        raise SchemaError(
            f"{path}: {len(problems)} table(s) failed to load: "
            + "; ".join(problems)
        )
    return TraceDataset(tables=tables, **meta)
