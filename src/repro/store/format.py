"""The on-disk chunk format: one binary file per row group.

A chunk file holds a horizontal slice of one trace table, encoded
column-by-column so that a reader can decode a *projection* (a subset of
columns) without touching the bytes of the others — the columnar half of
the BigQuery substitution (see DESIGN.md §9 note).

Layout (format 3)::

    8 bytes    magic ``RSTORE3\\n``
    8 bytes    little-endian uint64: ``rows``
    4 bytes    little-endian uint32: column record count ``n``
    n x 13     column directory, one record per column in the manifest's
               column order: uint8 kind code, uint64 payload byte
               length, uint32 payload CRC-32 (``zlib``)
    ...        column payloads, in directory order, filling the file

The fixed head and the directory form the chunk's header.  Column
names and kinds live once, in the store manifest; a reader takes
the table's ``(name, kind)`` schema from there.  A column's index is its
record's position, and its payload starts at the end of the directory
plus the lengths of the payloads before it.  Kind codes are the
positions in :data:`KIND_CODES`.  Payload encodings:

* ``float`` — raw little-endian ``float64`` (``inf``/``nan`` round-trip
  exactly, unlike CSV text)
* ``int``   — raw little-endian ``int64``
* ``bool``  — one ``uint8`` per value
* ``str``   — dictionary-encoded: a little-endian ``uint64`` dictionary
  size ``k``, then ``k + 1`` little-endian ``int64`` offsets, then the
  UTF-8 bytes of the ``k`` distinct values in order of first
  appearance, then one little-endian ``uint32`` code per row

The header is checked against the manifest before any payload is
read: the magic, a header cut short, a record count other than the
schema's column count, a kind other than the schema's, ``rows`` other
than the manifest's count for the chunk, and lengths that do not fill
the file exactly each raise :class:`~repro.util.errors.SchemaError`.
Chunks of an earlier format are rejected by their magic; rewrite such a
store with ``borg-repro convert`` or by simulating again.

Each payload that is read is checked before it is decoded: its CRC-32
must match, and it must fit ``rows`` — for strings, the offsets must
start at 0, never decrease and end at the dictionary's byte length,
``k`` may not exceed ``rows``, every code must be below ``k`` and every
value must be valid UTF-8.  A chunk that fails (bit-flipped, corrupt
offsets or codes) raises :class:`~repro.util.errors.SchemaError`
instead of decoding to wrong values.  Payloads of unrequested columns
are never read.

Strings decode without per-row work: the ``k`` dictionary values are
decoded once and :meth:`Column.from_codes` fans them out with one
object-array take, so rows with equal values share one ``str`` object
and memory stays bounded by the payload plus a word per row.  The
encoder builds the dictionary with ``dict.fromkeys`` and maps rows to
codes through it, two C-level passes; the dictionary keeps the order of
first appearance, so the bytes follow the column's row order, never
hash order.

Reads are buffered: one ``read`` takes the magic and the whole
directory, then each wanted payload is one ``seek`` + ``read``, copied
into process memory once.  Numeric columns are read-only views over
those bytes.
"""

from __future__ import annotations

import functools
import io
import os
import struct
import zlib
from itertools import accumulate
from typing import BinaryIO, Dict, NoReturn, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.table.column import Column
from repro.table.table import Table
from repro.util.errors import SchemaError

MAGIC = b"RSTORE3\n"
CHUNK_SUFFIX = ".rsc"

#: A table's columns as ``(name, kind)`` pairs, in the manifest's order.
Schema = Sequence[Tuple[str, str]]

#: Column kinds by their code in a directory record.
KIND_CODES = ("float", "int", "bool", "str")
_KIND_CODE = {kind: code for code, kind in enumerate(KIND_CODES)}

_LEN = struct.Struct("<Q")
#: ``rows`` and the column record count, right after the magic.
_HEAD = struct.Struct("<QI")
#: One column record: kind code, payload byte length, payload CRC-32.
_RECORD = struct.Struct("<BQI")
_DIRECTORY_AT = len(MAGIC) + _HEAD.size


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


def _decode_column(name: str, kind: str, rows: int, crc32: int,
                   payload: bytes) -> Column:
    # ``<f8``/``<i8`` ARE float64/int64 on every platform we target
    # (little-endian), so frombuffer's view needs no ``astype`` copy —
    # the Column wraps the (read-only) view over the payload bytes
    # directly; only ``bool`` genuinely converts (uint8 -> bool).
    crc = zlib.crc32(payload)
    if crc != crc32:
        raise SchemaError(f"chunk column {name!r} fails its checksum: "
                          f"crc32 {crc:#010x}, directory says "
                          f"{crc32:#010x}")
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
    """Serialize ``table`` as one chunk; returns the bytes written.  The
    directory follows the table's column order, which must be the
    manifest's."""
    payloads = [_encode_column(table.column(name))
                for name in table.column_names]
    records = [_RECORD.pack(_KIND_CODE[table.column(name).kind],
                            len(payload), zlib.crc32(payload))
               for name, payload in zip(table.column_names, payloads)]
    blob = b"".join([MAGIC, _HEAD.pack(len(table), len(records)), *records,
                     *payloads])
    if hasattr(dest, "write"):
        dest.write(blob)
    else:
        with open(dest, "wb") as f:
            f.write(blob)
    return len(blob)


def read_chunk(source: Union[str, os.PathLike, BinaryIO], schema: Schema,
               rows: int, columns: Optional[Sequence[str]] = None) -> Table:
    """Decode a chunk file (a path, or a binary file object holding
    exactly one chunk) into a :class:`Table`.

    ``schema`` is the table's ``(name, kind)`` column list and ``rows``
    the chunk's row count, both from the manifest; the chunk's directory
    must agree with them.  ``columns``, if given, selects and orders a
    projection; the payloads of other columns are never read.
    """
    if hasattr(source, "read"):
        return _read_chunk(source, schema, rows, columns)
    with open(source, "rb") as f:
        return _read_chunk(f, schema, rows, columns)


def _read_chunk(f: BinaryIO, schema: Schema, rows: int,
                columns: Optional[Sequence[str]]) -> Table:
    n = len(schema)
    header_size = _DIRECTORY_AT + n * _RECORD.size
    raw = f.read(header_size)
    if raw[:len(MAGIC)] != MAGIC:
        _reject_magic(raw[:len(MAGIC)])
    if len(raw) < _DIRECTORY_AT:
        raise SchemaError(f"chunk header is truncated: {len(raw)} of "
                          f"{_DIRECTORY_AT} head bytes")
    found_rows, count = _HEAD.unpack_from(raw, len(MAGIC))
    if count != n:
        relation = "which exceeds" if count > n else "fewer than"
        raise SchemaError(f"chunk header lists {count} column records, "
                          f"{relation} the manifest's {n} columns")
    if len(raw) != header_size:
        raise SchemaError(f"chunk header is truncated: {len(raw)} of "
                          f"{header_size} bytes")
    fields = struct.unpack_from("<" + "BQI" * n, raw, _DIRECTORY_AT)
    codes, lengths, crcs = fields[0::3], fields[1::3], fields[2::3]
    for (name, kind), code in zip(schema, codes):
        if code != _KIND_CODE[kind]:
            found = KIND_CODES[code] if code < len(KIND_CODES) \
                else f"unknown kind code {code}"
            raise SchemaError(f"chunk column {name!r} is {found}; the "
                              f"manifest says {kind}")
    if found_rows != rows:
        raise SchemaError(f"chunk holds {found_rows} rows; the manifest "
                          f"says {rows}")
    held, listed = f.seek(0, io.SEEK_END) - header_size, sum(lengths)
    if held < listed:
        raise SchemaError(f"chunk is truncated: its directory lists "
                          f"{listed} payload bytes, the file holds {held}")
    if held > listed:
        raise SchemaError(f"chunk payload lengths do not fill the file: its "
                          f"directory lists {listed} payload bytes, the file "
                          f"holds {held}")
    index = _column_index(tuple(schema))
    wanted = list(index) if columns is None else list(columns)
    starts = list(accumulate(lengths, initial=header_size))
    decoded = {}
    bytes_read = 0
    for name in wanted:
        i = index.get(name)
        if i is None:
            raise SchemaError(f"chunk has no column {name!r}; available: "
                              f"{sorted(index)}")
        f.seek(starts[i])
        payload = f.read(lengths[i])
        bytes_read += len(payload)
        decoded[name] = _decode_column(name, schema[i][1], rows, crcs[i],
                                       payload)
    registry = obs.get_registry()
    registry.inc("store.chunks_read")
    registry.inc("store.bytes_read", bytes_read)
    return Table(decoded)


@functools.lru_cache(maxsize=64)
def _column_index(schema: Tuple[Tuple[str, str], ...]) -> Dict[str, int]:
    """Column name -> directory position, built once per schema (a scan
    reads every chunk of a table against one schema)."""
    return {name: i for i, (name, _) in enumerate(schema)}


def _reject_magic(magic: bytes) -> NoReturn:
    if magic[:6] == MAGIC[:6]:
        found = magic[:7].decode("ascii", "replace")
        raise SchemaError(
            f"chunk is in store format {found}, and this reader reads "
            f"{MAGIC[:7].decode()} only; rewrite the store with "
            f"`borg-repro convert` or by simulating again")
    raise SchemaError(f"not a repro store chunk (bad magic {magic!r})")
