"""The store manifest: schema, chunk index, and per-chunk statistics.

The manifest is the store's substitute for BigQuery partition metadata:
a single JSON document listing, for every table, its column schema, the
row count of each chunk and per-column ``min``/``max`` statistics of
every chunk.  Scans consult these statistics to skip whole chunks before
decoding a single value (the "clustering" half of the substitution —
see DESIGN.md).

Statistics are kept for every non-boolean column (numeric min/max, and
lexicographic min/max for strings), which subsumes the four columns the
paper's queries partition on: ``time``, ``collection_id``, ``tier`` and
``priority``.  Float columns also record each chunk's NaN count: bounds
skip NaN, so a chunk proves a predicate true for every row only when it
holds none (see :mod:`repro.store.predicates`).

Format 4 stores them column-wise, so a parse reads a few flat lists per
table instead of one dict per chunk::

    "instance_usage": {"columns": [{"name": "start_time",
                                    "kind": "float"}, ...],
                       "rows": 2500, "chunk_rows": [1024, 1024, 452],
                       "stats": {"start_time": {"min": [...], "max": [...],
                                                "nans": [0, 0, 0]},
                                 ...}}

``null`` marks a chunk with no bound (an all-NaN float column).  Chunk
``i`` of table ``t`` is the file :func:`chunk_file` ``(t, i)``.  The
``columns`` list is the only place names and kinds are stored: chunk
files hold a binary directory in this order (see
:mod:`repro.store.format`), and every chunk read is checked against
:meth:`Manifest.schema` and ``chunk_rows``.  The manifest is written
without indentation.

Statistics decide answers, not only which chunks are read: a chunk
whose bounds prove every row matches is not filtered, and a count over
it is its row count.  So the manifest's last key is ``"checksum"``, the
CRC-32 (eight hex digits) of its canonical body: the document without
that key, serialized with sorted keys and no whitespace.  Every parse
checks it; a flipped or edited bound, NaN count or row count raises
:class:`~repro.util.errors.SchemaError` at open.  A version-3 manifest
(no NaN counts, no checksum) is rejected like every older one.

A manifest is parsed once per process.  :meth:`Manifest.load` reads
the raw ``manifest.json`` bytes on every open and keeps, for each of
the last :data:`LOADED_MANIFESTS` store directories (resolved), the
bytes it last parsed there and their parse.  An open whose bytes equal
the kept ones returns the kept parse, so fresh handles to an unchanged
store share one parse, including the per-chunk ``{"file", "rows",
"stats"}`` entries :meth:`Manifest.chunks` builds on first use.  A
loaded manifest is shared and never mutated.  A hit needs equal
content, not an equal size and timestamp, so a rewritten store, or a
manifest edited in place at the same length, is seen on the next open
on any filesystem, whatever its timestamp granularity; its new parse
replaces the stale one.  A manifest that fails validation is never
kept.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple, Union

import numpy as np

from repro.store.format import CHUNK_SUFFIX
from repro.table.column import KINDS, Column
from repro.table.table import Table
from repro.util.errors import SchemaError

MANIFEST_FILE = "manifest.json"
FORMAT_NAME = "repro-store"
FORMAT_VERSION = 4

#: Stores whose parsed manifest :meth:`Manifest.load` keeps (least
#: recently used first out).  One per store a process reads is plenty.
LOADED_MANIFESTS = 16
#: Resolved store directory -> (manifest bytes, their parse).
_LOADED: "OrderedDict[str, Tuple[bytes, Manifest]]" = OrderedDict()


def chunk_file(table: str, index: int) -> str:
    """The store-relative path of chunk ``index`` of ``table``."""
    return f"{table}/chunk-{index:05d}{CHUNK_SUFFIX}"


def chunk_stats(table: Table) -> Dict[str, Dict[str, object]]:
    """Per-column ``{"min": ..., "max": ...}`` for one chunk's rows, plus
    ``"nans"`` (the NaN count) for float columns.

    Boolean columns are skipped (two values carry no pruning power);
    empty tables yield no statistics, and an all-NaN float column has
    no entry (:meth:`Manifest.add_chunk` records its NaN count as the
    chunk's row count).
    """
    stats: Dict[str, Dict[str, object]] = {}
    if len(table) == 0:
        return stats
    for name in table.column_names:
        column = table.column(name)
        if column.kind == "bool":
            continue
        if column.kind == "str":
            stats[name] = {"min": str(column.min()), "max": str(column.max())}
        elif column.kind == "int":
            stats[name] = {"min": int(column.min()), "max": int(column.max())}
        else:
            # NaN-aware bounds: plain min/max would record NaN, and every
            # range test against NaN is False — the chunk would be pruned
            # even though its other rows match.
            nans = int(np.count_nonzero(np.isnan(column.values)))
            if nans < len(column):
                stats[name] = {"min": float(np.nanmin(column.values)),
                               "max": float(np.nanmax(column.values)),
                               "nans": nans}
    return stats


class ColumnBounds(NamedTuple):
    """One column's statistics over every chunk of a table, as arrays
    indexed by chunk."""

    #: Each chunk's min and max as a column of the column's kind (a
    #: placeholder where the chunk has no bound).
    lo: Column
    hi: Column
    #: The chunk recorded bounds.
    known: np.ndarray
    #: ... and the column holds no NaN in it.
    nan_free: np.ndarray


#: Stand-ins for a missing bound, by kind; ``known`` masks them out.
_NO_BOUND = {"float": float("nan"), "int": 0, "str": ""}
_DTYPES = {"float": np.float64, "int": np.int64, "str": object}


def _column_bounds(kind: str, bounds: dict) -> ColumnBounds:
    fill = _NO_BOUND[kind]
    known = np.array([v is not None for v in bounds["min"]], dtype=bool)
    lo, hi = (Column(np.array([fill if v is None else v for v in values],
                              dtype=_DTYPES[kind]))
              for values in (bounds["min"], bounds["max"]))
    nan_free = known
    if kind == "float":
        nan_free = known & (np.array(bounds["nans"], dtype=np.int64) == 0)
    return ColumnBounds(lo, hi, known, nan_free)


def _checksum(body: dict) -> str:
    """CRC-32 of the manifest body's canonical JSON, as eight hex digits."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(text.encode()):08x}"


def _unsealed(data, path: Path):
    """``data`` without its ``"checksum"`` key, which must match the rest.
    Documents of another format or version pass through unchecked: the
    constructor names what is wrong with them."""
    if not (isinstance(data, dict) and data.get("format") == FORMAT_NAME
            and data.get("version") == FORMAT_VERSION):
        return data
    body = {key: value for key, value in data.items() if key != "checksum"}
    found, want = data.get("checksum"), _checksum(body)
    if found != want:
        raise SchemaError(f"store manifest {path} fails its checksum: crc32 "
                          f"{want}, the manifest says {found!r}; it was "
                          f"edited or damaged, so rewrite the store")
    return body


class Manifest:
    """Parsed view of a store's ``manifest.json``."""

    def __init__(self, data: dict):
        if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
            found = data.get("format") if isinstance(data, dict) else None
            raise SchemaError(f"not a {FORMAT_NAME} manifest (format={found!r})")
        if data.get("version") != FORMAT_VERSION:
            raise SchemaError(
                f"store version {data.get('version')!r} is not read by this "
                f"reader (it reads version {FORMAT_VERSION} only); rewrite "
                f"the store with `borg-repro convert` or by simulating again"
            )
        tables = data.get("tables")
        if not isinstance(tables, dict):
            raise SchemaError("store manifest has no 'tables' mapping")
        for name, entry in tables.items():
            _check_table(name, entry)
        self.data = data
        self._chunks: Dict[str, List[dict]] = {}
        self._schemas: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        self._bounds: Dict[str, Dict[str, ColumnBounds]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def new(cls, meta: dict, chunk_rows: int) -> "Manifest":
        return cls({
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "chunk_rows": chunk_rows,
            "meta": dict(meta),
            "tables": {},
        })

    @classmethod
    def load(cls, directory: Union[str, os.PathLike]) -> "Manifest":
        """The store's manifest, parsed once per process while its bytes
        stay the same (see the module docstring)."""
        root = Path(directory)
        path = root / MANIFEST_FILE
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except (FileNotFoundError, NotADirectoryError):
            raise SchemaError(f"no store manifest at {path}") from None
        resolved = str(root.resolve())
        loaded = _LOADED.get(resolved)
        if loaded is not None and loaded[0] == raw:
            _LOADED.move_to_end(resolved)
            return loaded[1]
        try:
            data = json.loads(raw)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise SchemaError(f"store manifest {path} is not JSON: "
                              f"{exc}") from None
        manifest = cls(_unsealed(data, path))
        _LOADED[resolved] = (raw, manifest)
        _LOADED.move_to_end(resolved)
        if len(_LOADED) > LOADED_MANIFESTS:
            _LOADED.popitem(last=False)
        return manifest

    def save(self, directory: Union[str, os.PathLike]) -> None:
        """Write the manifest, its checksum last."""
        with open(Path(directory) / MANIFEST_FILE, "w") as f:
            json.dump({**self.data, "checksum": _checksum(self.data)}, f,
                      separators=(",", ":"))

    # -- registration (writer side) -----------------------------------------

    def add_table(self, name: str, columns: List[Dict[str, str]]) -> None:
        self.data["tables"][name] = {
            "columns": columns, "rows": 0, "chunk_rows": [],
            "stats": {c["name"]: {"min": [], "max": [], "nans": []}
                      if c["kind"] == "float" else {"min": [], "max": []}
                      for c in columns if c["kind"] != "bool"},
        }

    def add_chunk(self, table: str, rows: int,
                  stats: Dict[str, Dict[str, object]]) -> str:
        """Register the table's next chunk; returns its file name."""
        entry = self.data["tables"][table]
        file = chunk_file(table, len(entry["chunk_rows"]))
        entry["chunk_rows"].append(rows)
        entry["rows"] += rows
        for column, bounds in entry["stats"].items():
            chunk = stats.get(column, {})
            bounds["min"].append(chunk.get("min"))
            bounds["max"].append(chunk.get("max"))
            if "nans" in bounds:  # a float column without bounds is all NaN
                bounds["nans"].append(chunk.get("nans", rows))
        self._chunks.pop(table, None)
        self._bounds.pop(table, None)
        return file

    # -- reader side ---------------------------------------------------------

    @property
    def table_names(self) -> List[str]:
        return list(self.data["tables"])

    def table(self, name: str) -> dict:
        try:
            return self.data["tables"][name]
        except KeyError:
            raise SchemaError(
                f"store has no table {name!r}; available: {self.table_names}"
            ) from None

    def column_names(self, table: str) -> List[str]:
        return [name for name, _ in self.schema(table)]

    def column_kinds(self, table: str) -> Dict[str, str]:
        return dict(self.schema(table))

    def schema(self, table: str) -> Tuple[Tuple[str, str], ...]:
        """``table``'s ``(name, kind)`` columns in chunk directory order
        (built on first use)."""
        schema = self._schemas.get(table)
        if schema is None:
            schema = tuple((c["name"], c["kind"])
                           for c in self.table(table)["columns"])
            self._schemas[table] = schema
        return schema

    def chunks(self, table: str) -> List[dict]:
        """Per-chunk ``{"file", "rows"}`` entries of ``table`` (built on
        first use)."""
        chunks = self._chunks.get(table)
        if chunks is None:
            rows = self.table(table)["chunk_rows"]
            chunks = [{"file": chunk_file(table, i), "rows": n}
                      for i, n in enumerate(rows)]
            self._chunks[table] = chunks
        return chunks

    def bounds(self, table: str) -> Dict[str, ColumnBounds]:
        """Every chunk's statistics of ``table``, one
        :class:`ColumnBounds` per column that keeps them (built on first
        use)."""
        bounds = self._bounds.get(table)
        if bounds is None:
            kinds = self.column_kinds(table)
            bounds = {name: _column_bounds(kinds[name], entry)
                      for name, entry in self.table(table)["stats"].items()
                      if kinds.get(name, "bool") != "bool"}
            self._bounds[table] = bounds
        return bounds

    def rows(self, table: str) -> int:
        return self.table(table)["rows"]


def _check_table(name: str, entry) -> None:
    """Raise :class:`SchemaError` unless ``entry`` is a well-formed
    format-4 table entry whose statistics cover every chunk."""
    if not (isinstance(entry, dict) and isinstance(entry.get("columns"), list)
            and isinstance(entry.get("chunk_rows"), list)
            and isinstance(entry.get("stats"), dict)):
        raise SchemaError(f"store manifest table {name!r} lacks a 'columns' "
                          f"list, a 'chunk_rows' list and a 'stats' mapping")
    for column in entry["columns"]:
        if not (isinstance(column, dict)
                and isinstance(column.get("name"), str)
                and column.get("kind") in KINDS):
            raise SchemaError(f"store manifest table {name!r} has a "
                              f"malformed column entry {column!r}")
    if not all(type(rows) is int and rows >= 0
               for rows in entry["chunk_rows"]):
        raise SchemaError(f"store manifest table {name!r} has a chunk row "
                          f"count that is not a count")
    kinds = {column["name"]: column["kind"] for column in entry["columns"]}
    n = len(entry["chunk_rows"])
    for column, bounds in entry["stats"].items():
        keys = ("min", "max", "nans") if kinds.get(column) == "float" \
            else ("min", "max")
        for key in keys:
            values = bounds.get(key) if isinstance(bounds, dict) else None
            if not isinstance(values, list) or len(values) != n:
                raise SchemaError(
                    f"store manifest table {name!r} column {column!r} needs "
                    f"a {key!r} list of {n} chunk bounds, got "
                    f"{len(values) if isinstance(values, list) else values!r}")
        if "nans" in keys and not all(
                type(nans) is int and 0 <= nans <= rows
                for nans, rows in zip(bounds["nans"], entry["chunk_rows"])):
            raise SchemaError(f"store manifest table {name!r} column "
                              f"{column!r} has a NaN count that is not a "
                              f"count of the chunk's rows")
