"""Reading a store: :class:`TraceStore` and the lazily-backed dataset.

``TraceStore`` is the query entry point — open the manifest, build
:class:`~repro.store.scan.Scan` objects, materialize tables.  It keeps
no decoded chunks: every read, a whole-table one included, is a scan
whose chunks decode through :func:`~repro.store.executor.run_chunk_task`.

``StoreBackedTraceDataset`` makes a store quack like a fully-loaded
:class:`~repro.trace.dataset.TraceDataset`: every existing analysis
works unchanged, but each table is decoded only on first access.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.store.manifest import MANIFEST_FILE, Manifest
from repro.store.scan import Scan
from repro.table.column import empty_column
from repro.table.table import Table
from repro.util.errors import SchemaError


class TraceStore:
    """One on-disk chunked columnar store (one cell's trace)."""

    def __init__(self, directory: Union[str, os.PathLike]):
        self.path = Path(directory)
        self.manifest = Manifest.load(self.path)

    # -- metadata ------------------------------------------------------------

    @property
    def meta(self) -> dict:
        """The trace metadata, checked by ``check_meta``."""
        return check_meta(self.manifest.data.get("meta"),
                          self.path / MANIFEST_FILE)

    @property
    def table_names(self) -> List[str]:
        return self.manifest.table_names

    def rows(self, table: str) -> int:
        return self.manifest.rows(table)

    def chunk_path(self, file: str) -> Path:
        return self.path / file

    def empty_table(self, table: str,
                    columns: Optional[Sequence[str]] = None) -> Table:
        """A zero-row table with the manifest's column kinds preserved."""
        kinds = self.manifest.column_kinds(table)
        names = list(columns) if columns is not None \
            else self.manifest.column_names(table)
        return Table({n: empty_column(kinds[n]) for n in names})

    # -- queries -------------------------------------------------------------

    def scan(self, table: str) -> Scan:
        """A lazy scan over ``table`` (compose with select/where)."""
        self.manifest.table(table)  # raise early on unknown tables
        return Scan(self, table)

    def read_table(self, table: str,
                   columns: Optional[Sequence[str]] = None) -> Table:
        """Materialize a whole table (optionally projected): an
        unfiltered scan."""
        scan = self.scan(table)
        if columns is not None:
            scan = scan.select(*columns)
        return scan.to_table()

    def to_dataset(self) -> "StoreBackedTraceDataset":
        """A lazy :class:`TraceDataset` view over this store."""
        return StoreBackedTraceDataset(tables=_LazyTables(self), store=self,
                                       **self.meta)

    def __repr__(self) -> str:
        rows = {name: self.rows(name) for name in self.table_names}
        return f"TraceStore({str(self.path)!r}, rows={rows})"


def open_store(directory: Union[str, os.PathLike]) -> TraceStore:
    """Open an existing store directory."""
    return TraceStore(directory)


class _LazyTables(Mapping):
    """Mapping of table name -> Table that decodes on first access."""

    def __init__(self, store: TraceStore):
        self._store = store
        self._loaded: Dict[str, Table] = {}

    def __getitem__(self, name: str) -> Table:
        if name not in self._loaded:
            self._loaded[name] = self._store.read_table(name)
        return self._loaded[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.table_names)

    def __len__(self) -> int:
        return len(self._store.table_names)

    @property
    def loaded_tables(self) -> List[str]:
        """Names decoded so far (observability for tests and tuning)."""
        return sorted(self._loaded)


# Imported late to dodge the repro.trace <-> repro.store import cycle
# (trace.io imports the writer/reader; the dataset only needs the class).
from repro.trace.dataset import SCHEMA_2019, TraceDataset
from repro.trace.schema import check_meta


@dataclass
class StoreBackedTraceDataset(TraceDataset):
    """A TraceDataset whose tables decode lazily from a store."""

    store: Optional[TraceStore] = None

    def __post_init__(self):
        # Validate against the manifest instead of materializing tables;
        # report every mismatched table at once.
        problems = []
        for name, columns in SCHEMA_2019.items():
            if name not in self.store.manifest.table_names:
                problems.append(f"missing table {name!r}")
                continue
            got = self.store.manifest.column_names(name)
            if got != columns:
                problems.append(
                    f"table {name!r} has columns {got}, expected {columns}"
                )
        if problems:
            raise SchemaError("; ".join(problems))

    @property
    def loaded_tables(self) -> List[str]:
        return self.tables.loaded_tables  # type: ignore[union-attr]

    def __repr__(self) -> str:
        sizes = {name: self.store.rows(name) for name in self.store.table_names}
        return (f"StoreBackedTraceDataset(cell={self.cell!r}, era={self.era}, "
                f"rows={sizes}, loaded={self.loaded_tables})")
