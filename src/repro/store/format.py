"""The on-disk chunk format: one binary file per row group.

A chunk file holds a horizontal slice of one trace table, encoded
column-by-column so that a reader can decode a *projection* (a subset of
columns) without touching the bytes of the others — the columnar half of
the BigQuery substitution (see DESIGN.md §9 note).

Layout (format 2)::

    8 bytes   magic ``RSTORE2\\n``
    8 bytes   little-endian uint64: header length H
    H bytes   UTF-8 JSON header
    ...       column payloads, in header order

The JSON header records ``rows`` and, per column, its ``name``, ``kind``
(one of the four :class:`~repro.table.column.Column` kinds), payload
byte length ``nbytes`` and the payload's ``crc32`` (``zlib``), so a
reader can seek straight to any column.  Payload encodings:

* ``float`` — raw little-endian ``float64`` (``inf``/``nan`` round-trip
  exactly, unlike CSV text)
* ``int``   — raw little-endian ``int64``
* ``bool``  — one ``uint8`` per value
* ``str``   — dictionary-encoded: a little-endian ``uint64`` dictionary
  size ``k``, then ``k + 1`` little-endian ``int64`` offsets, then the
  UTF-8 bytes of the ``k`` distinct values in order of first
  appearance, then one little-endian ``uint32`` code per row

Each payload that is read is checked before it is decoded: it must be
exactly as long as the header says, its CRC-32 must match, and it must
fit ``rows`` — for strings, the offsets must start at 0, never decrease
and end at the dictionary's byte length, ``k`` may not exceed ``rows``,
every code must be below ``k`` and every value must be valid UTF-8.  A
chunk that fails (truncated, bit-flipped, corrupt offsets or codes)
raises :class:`~repro.util.errors.SchemaError` instead of decoding to
wrong values.  Payloads of unrequested columns are skipped unread.

Strings decode without per-row work: the ``k`` dictionary values are
decoded once and :meth:`Column.from_codes` fans them out with one
object-array take, so rows with equal values share one ``str`` object
and memory stays bounded by the payload plus a word per row.  The
encoder builds the dictionary with ``dict.fromkeys`` and maps rows to
codes through it, two C-level passes; the dictionary keeps the order of
first appearance, so the bytes follow the column's row order, never
hash order.

Reads are buffered: ``open`` + ``read``/``seek``, so every wanted
payload is copied into process memory once and unwanted ones are
skipped with a seek.  Numeric columns are read-only views over those
bytes.

The header is checked as strictly as the payloads: a chunk cut inside
its length prefix or its header, a length prefix above
:data:`MAX_HEADER_BYTES`, a header that is not JSON, one without
``rows`` and ``columns``, or a malformed column entry raises
:class:`~repro.util.errors.SchemaError`.  Chunks of an earlier format
are rejected by their magic; rewrite such a store with ``borg-repro
convert`` or by simulating again.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from typing import BinaryIO, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.table.column import KINDS, Column
from repro.table.table import Table
from repro.util.errors import SchemaError

MAGIC = b"RSTORE2\n"
CHUNK_SUFFIX = ".rsc"

_LEN = struct.Struct("<Q")

#: Largest header a reader accepts.  A real header is a few dozen bytes
#: per column, so anything near this is a corrupt length prefix.
MAX_HEADER_BYTES = 1 << 24


def _encode_column(column: Column) -> bytes:
    kind = column.kind
    values = column.values
    if kind == "float":
        return values.astype("<f8").tobytes()
    if kind == "int":
        return values.astype("<i8").tobytes()
    if kind == "bool":
        return values.astype(np.uint8).tobytes()
    index = dict.fromkeys(values)  # the distinct values, first appearance
    for code, value in enumerate(index):
        index[value] = code
    codes = np.fromiter(map(index.__getitem__, values), dtype="<u4",
                        count=len(values))
    blobs = list(map(str.encode, index))  # UTF-8
    offsets = np.zeros(len(blobs) + 1, dtype="<i8")
    np.cumsum(np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs)),
              out=offsets[1:])
    return (_LEN.pack(len(blobs)) + offsets.tobytes() + b"".join(blobs)
            + codes.tobytes())


#: Payload bytes per row of the fixed-width kinds.
_ITEMSIZE = {"float": 8, "int": 8, "bool": 1}


def _decode_column(meta: dict, rows: int, payload: bytes) -> Column:
    # ``<f8``/``<i8`` ARE float64/int64 on every platform we target
    # (little-endian), so frombuffer's view needs no ``astype`` copy —
    # the Column wraps the (read-only) view over the payload bytes
    # directly; only ``bool`` genuinely converts (uint8 -> bool).
    kind, name = meta["kind"], meta["name"]
    if kind not in KINDS:
        raise SchemaError(f"chunk column has unknown kind {kind!r}; "
                          f"this reader understands {KINDS}")
    if len(payload) != meta["nbytes"]:
        raise SchemaError(f"chunk column {name!r} is truncated: "
                          f"{len(payload)} of {meta['nbytes']} payload bytes")
    crc = zlib.crc32(payload)
    if crc != meta["crc32"]:
        raise SchemaError(f"chunk column {name!r} fails its checksum: "
                          f"crc32 {crc:#010x}, header says "
                          f"{meta['crc32']:#010x}")
    if kind == "str":
        return _decode_strings(name, rows, payload)
    if len(payload) != rows * _ITEMSIZE[kind]:
        raise SchemaError(f"chunk column {name!r} has {len(payload)} payload "
                          f"bytes; {rows} {kind} rows need "
                          f"{rows * _ITEMSIZE[kind]}")
    if kind == "float":
        return Column(np.frombuffer(payload, dtype="<f8", count=rows)
                      .astype(np.float64, copy=False))
    if kind == "int":
        return Column(np.frombuffer(payload, dtype="<i8", count=rows)
                      .astype(np.int64, copy=False))
    return Column(np.frombuffer(payload, dtype=np.uint8, count=rows)
                  .astype(bool))


def _decode_strings(name: str, rows: int, payload: bytes) -> Column:
    """The dictionary-encoded ``str`` payload as a column: each distinct
    value decoded once, then fanned out by code (see the module
    docstring)."""
    if len(payload) < _LEN.size:
        raise SchemaError(f"chunk column {name!r} has {len(payload)} payload "
                          f"bytes, too few for a dictionary size")
    (k,) = _LEN.unpack_from(payload)
    if k > rows:
        raise SchemaError(f"chunk column {name!r} has a {k}-value dictionary "
                          f"for {rows} rows")
    head = _LEN.size + (k + 1) * 8
    blob_len = len(payload) - head - rows * 4
    if blob_len < 0:
        raise SchemaError(f"chunk column {name!r} has {len(payload)} payload "
                          f"bytes, too few for {k + 1} dictionary offsets and "
                          f"{rows} codes")
    offsets = np.frombuffer(payload, dtype="<i8", count=k + 1,
                            offset=_LEN.size)
    if offsets[0] != 0 or offsets[-1] != blob_len \
            or (np.diff(offsets) < 0).any():
        raise SchemaError(f"chunk column {name!r} has corrupt string offsets "
                          f"(must rise from 0 to the {blob_len}-byte "
                          f"dictionary)")
    codes = np.frombuffer(payload, dtype="<u4", count=rows,
                          offset=head + blob_len)
    if rows and int(codes.max()) >= k:
        raise SchemaError(f"chunk column {name!r} has a string code "
                          f"{int(codes.max())} outside its {k}-value "
                          f"dictionary")
    blob = payload[head:head + blob_len]
    bounds = offsets.tolist()
    try:
        names = [blob[lo:hi].decode("utf-8")
                 for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"chunk column {name!r} holds invalid UTF-8: "
                          f"{exc}") from None
    return Column.from_codes(codes, names)


def write_chunk(table: Table, dest: Union[str, os.PathLike, BinaryIO]) -> int:
    """Serialize ``table`` as one chunk; returns the bytes written."""
    payloads = []
    header_cols = []
    for name in table.column_names:
        column = table.column(name)
        payload = _encode_column(column)
        payloads.append(payload)
        header_cols.append({"name": name, "kind": column.kind,
                            "nbytes": len(payload),
                            "crc32": zlib.crc32(payload)})
    header = json.dumps({"rows": len(table), "columns": header_cols},
                        separators=(",", ":")).encode("utf-8")
    blob = MAGIC + _LEN.pack(len(header)) + header + b"".join(payloads)
    if hasattr(dest, "write"):
        dest.write(blob)
    else:
        with open(dest, "wb") as f:
            f.write(blob)
    return len(blob)


def read_chunk_header(source: Union[str, os.PathLike, BinaryIO]) -> dict:
    """The JSON header of a chunk file (no column payloads decoded)."""
    if hasattr(source, "read"):
        return _read_header(source)
    with open(source, "rb") as f:
        return _read_header(f)


def _read_header(f: BinaryIO) -> dict:
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        if magic[:6] == MAGIC[:6]:
            found = magic[:7].decode("ascii", "replace")
            raise SchemaError(
                f"chunk is in store format {found}, and this reader reads "
                f"{MAGIC[:7].decode()} only; rewrite the store with "
                f"`borg-repro convert` or by simulating again")
        raise SchemaError(f"not a repro store chunk (bad magic {magic!r})")
    prefix = f.read(_LEN.size)
    if len(prefix) != _LEN.size:
        raise SchemaError(f"chunk header is truncated: {len(prefix)} of "
                          f"{_LEN.size} length-prefix bytes")
    (header_len,) = _LEN.unpack(prefix)
    if header_len > MAX_HEADER_BYTES:
        # Checked before reading: ``read`` allocates the length it is
        # asked for, and a corrupt prefix can ask for up to 2^64 bytes.
        raise SchemaError(f"chunk header length {header_len} exceeds "
                          f"{MAX_HEADER_BYTES} bytes")
    raw = f.read(header_len)
    if len(raw) != header_len:
        raise SchemaError(f"chunk header is truncated: {len(raw)} of "
                          f"{header_len} header bytes")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise SchemaError(f"chunk header is not JSON: {exc}") from None
    if not (isinstance(header, dict)
            and isinstance(header.get("rows"), int)
            and isinstance(header.get("columns"), list)):
        raise SchemaError("chunk header lacks an integer 'rows' and a "
                          "'columns' list")
    for meta in header["columns"]:
        if not (isinstance(meta, dict) and isinstance(meta.get("name"), str)
                and isinstance(meta.get("nbytes"), int)
                and meta["nbytes"] >= 0 and "kind" in meta
                and isinstance(meta.get("crc32"), int)):
            raise SchemaError(f"chunk header has a malformed column entry "
                              f"{meta!r}")
    return header


def read_chunk(source: Union[str, os.PathLike, BinaryIO],
               columns: Optional[Sequence[str]] = None) -> Table:
    """Decode a chunk file into a :class:`Table`.

    ``columns``, if given, selects and orders a projection; the payloads
    of unrequested columns are skipped with seeks.
    """
    if hasattr(source, "read"):
        return _read_chunk(source, columns)
    with open(source, "rb") as f:
        return _read_chunk(f, columns)


def _read_chunk(f: BinaryIO, columns: Optional[Sequence[str]]) -> Table:
    header = _read_header(f)
    rows = header["rows"]
    available = {c["name"]: c for c in header["columns"]}
    wanted: List[str] = list(columns) if columns is not None else list(available)
    for name in wanted:
        if name not in available:
            raise SchemaError(
                f"chunk has no column {name!r}; available: {sorted(available)}"
            )
    # Single pass: seek past unwanted payloads, read wanted ones.
    decoded = {}
    bytes_read = 0
    wanted_set = set(wanted)
    for meta in header["columns"]:
        if meta["name"] in wanted_set:
            payload = f.read(meta["nbytes"])
            bytes_read += len(payload)
            decoded[meta["name"]] = _decode_column(meta, rows, payload)
        else:
            f.seek(meta["nbytes"], io.SEEK_CUR)
    registry = obs.get_registry()
    registry.inc("store.chunks_read")
    registry.inc("store.bytes_read", bytes_read)
    return Table({name: decoded[name] for name in wanted})

