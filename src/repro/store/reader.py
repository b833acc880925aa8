"""Reading a store: :class:`TraceStore` and the lazily-backed dataset.

``TraceStore`` is the query entry point — open the manifest, build
:class:`~repro.store.scan.Scan` objects, materialize tables.  Decoded
chunks are served through an LRU :class:`~repro.store.cache.ChunkCache`,
so repeated analyses over the same store mostly hit memory.

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

from repro.store.cache import ChunkCache
from repro.store.manifest import Manifest
from repro.store.format import read_chunk
from repro.store.scan import Scan
from repro.table.column import empty_column
from repro.table.table import Table, concat


class TraceStore:
    """One on-disk chunked columnar store (one cell's trace)."""

    def __init__(self, directory: Union[str, os.PathLike],
                 cache_chunks: int = 64):
        self.path = Path(directory)
        self.manifest = Manifest.load(self.path)
        self.cache = ChunkCache(cache_chunks)

    # -- metadata ------------------------------------------------------------

    @property
    def meta(self) -> dict:
        return self.manifest.meta

    @property
    def table_names(self) -> List[str]:
        return self.manifest.table_names

    def rows(self, table: str) -> int:
        return self.manifest.rows(table)

    def chunk_path(self, file: str) -> Path:
        return self.path / file

    # -- chunk access (cached) ----------------------------------------------

    def load_chunk(self, table: str, file: str,
                   columns: Optional[Sequence[str]] = None) -> Table:
        """Decode one chunk (projected), via the LRU cache."""
        key = (table, file, tuple(columns) if columns is not None else None)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        decoded = read_chunk(self.chunk_path(file), columns)
        self.cache.put(key, decoded)
        return decoded

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
        """Materialize a whole table (optionally projected)."""
        chunks = self.manifest.chunks(table)
        if not chunks:
            return self.empty_table(table, columns)
        wanted = tuple(columns) if columns is not None else None
        parts = [self.load_chunk(table, c["file"], wanted) for c in chunks]
        return concat(parts)

    def to_dataset(self) -> "StoreBackedTraceDataset":
        """A lazy :class:`TraceDataset` view over this store."""
        return StoreBackedTraceDataset(tables=_LazyTables(self), store=self,
                                       **self.meta)

    def __repr__(self) -> str:
        rows = {name: self.rows(name) for name in self.table_names}
        return f"TraceStore({str(self.path)!r}, rows={rows})"


def open_store(directory: Union[str, os.PathLike],
               cache_chunks: int = 64) -> TraceStore:
    """Open an existing store directory."""
    return TraceStore(directory, cache_chunks=cache_chunks)


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
from repro.trace.dataset import SCHEMA_2019, TraceDataset  # noqa: E402


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
            raise ValueError("; ".join(problems))

    @property
    def loaded_tables(self) -> List[str]:
        return self.tables.loaded_tables  # type: ignore[union-attr]

    def __repr__(self) -> str:
        sizes = {name: self.store.rows(name) for name in self.store.table_names}
        return (f"StoreBackedTraceDataset(cell={self.cell!r}, era={self.era}, "
                f"rows={sizes}, loaded={self.loaded_tables})")
