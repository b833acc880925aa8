"""CSV serialization — the native format of the 2011 trace.

The reader infers per-column types (int, float, bool, str) from the data
and round-trips losslessly with the writer for all four supported kinds.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Dict, List, Optional, Union

from repro.table.column import Column
from repro.util.errors import SchemaError

PathOrBuffer = Union[str, os.PathLike, io.TextIOBase]


def _parse_column(raw: List[str]) -> Column:
    """Infer the best type for a column of raw strings."""
    if all(v in ("True", "False") for v in raw) and raw:
        return Column([v == "True" for v in raw])
    try:
        return Column([int(v) for v in raw])
    except ValueError:
        pass
    try:
        return Column([float(v) for v in raw])
    except ValueError:
        pass
    return Column(raw)


def read_csv(source: PathOrBuffer, columns: Optional[List[str]] = None):
    """Read a CSV file (with header row) into a :class:`Table`.

    ``columns``, if given, selects and orders a subset of columns.
    """
    from repro.table.table import Table

    if isinstance(source, io.TextIOBase):
        return _read(source, columns)
    with open(source, "r", newline="") as f:
        return _read(f, columns)


def _read(f, columns):
    from repro.table.table import Table

    last = [""]

    def lines():
        # The physical lines, the last one kept: the writer ends every
        # row with a newline, so a final line without one was cut.
        for line in f:
            last[0] = line
            yield line

    reader = csv.reader(lines())
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV file is empty (no header row)") from None
    raw: Dict[str, List[str]] = {name: [] for name in header}
    lineno = 1
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise SchemaError(
                f"CSV line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        for name, value in zip(header, row):
            raw[name].append(value)
    if not last[0].endswith("\n"):
        raise SchemaError(f"CSV line {lineno} ends without a newline: the "
                          f"file was cut inside its last row")
    wanted = columns or header
    for name in wanted:
        if name not in raw:
            raise SchemaError(f"CSV has no column {name!r}; header: {header}")
    return Table({name: _parse_column(raw[name]) for name in wanted})


def write_csv(table, dest: PathOrBuffer) -> None:
    """Write ``table`` to CSV with a header row."""
    if isinstance(dest, io.TextIOBase):
        _write(table, dest)
        return
    with open(dest, "w", newline="") as f:
        _write(table, f)


def _write(table, f) -> None:
    writer = csv.writer(f)
    names = table.column_names
    writer.writerow(names)
    cols = [table.column(n).values for n in names]
    for i in range(len(table)):
        writer.writerow([_format(c[i]) for c in cols])


def _format(value) -> str:
    import numpy as np

    if isinstance(value, (float, np.floating)):
        # repr of a builtin float is the shortest lossless decimal form.
        return repr(float(value))
    return str(value)
