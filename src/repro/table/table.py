"""The columnar :class:`Table` — the workhorse of every analysis.

A table is an ordered mapping of column names to equal-length
:class:`~repro.table.column.Column` objects.  All operators return new
tables; nothing mutates in place.  Row selection takes boolean masks
(``Column`` comparisons, or a store ``Predicate.mask``); grouping goes
through :func:`repro.table.segment.segments`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.table.column import Column
from repro.util.errors import SchemaError


class Table:
    """An immutable-by-convention columnar table."""

    def __init__(self, columns: Mapping[str, Union[Column, Sequence, np.ndarray]] = ()):
        self._columns: Dict[str, Column] = {}
        length: Optional[int] = None
        for name, values in dict(columns).items():
            if not isinstance(name, str) or not name:
                raise SchemaError(f"column names must be non-empty strings, got {name!r}")
            column = values if isinstance(values, Column) else Column(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise SchemaError(
                    f"column {name!r} has {len(column)} rows, expected {length}"
                )
            self._columns[name] = column
        self._length = length or 0

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> Column:
        """The named column; raises :class:`SchemaError` if absent."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {sorted(self._columns)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    # -- operators -------------------------------------------------------------

    def select(self, *names: str) -> "Table":
        """Keep only the named columns, in the given order."""
        return Table({name: self.column(name) for name in names})

    def filter(self, mask: Union[np.ndarray, Sequence[bool]]) -> "Table":
        """Rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise SchemaError(f"filter mask must be boolean, got dtype {mask.dtype}")
        if len(mask) != self._length:
            raise SchemaError(f"filter mask has {len(mask)} rows, table has {self._length}")
        return Table({n: c[mask] for n, c in self._columns.items()})

    def take(self, indices: Union[np.ndarray, Sequence[int]]) -> "Table":
        """Rows at the given positions, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Table({n: c[idx] for n, c in self._columns.items()})

    def sort(self, *names: str) -> "Table":
        """Stable sort by one or more columns."""
        if not names:
            raise SchemaError("sort requires at least one column name")
        # numpy lexsort uses the *last* key as primary; feed keys reversed.
        keys = []
        for name in reversed(names):
            values = self.column(name).values
            keys.append(values if values.dtype != object else np.asarray([str(v) for v in values]))
        return self.take(np.lexsort(keys))

    def distinct(self, *names: str) -> "Table":
        """Unique rows (by the named columns, or all columns)."""
        subset = names or tuple(self._columns)
        seen = set()
        keep: List[int] = []
        cols = [self.column(n).values for n in subset]
        for i in range(self._length):
            key = tuple(c[i] for c in cols)
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return self.take(np.asarray(keep, dtype=np.int64))

    # -- output ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, List]:
        return {n: c.to_list() for n, c in self._columns.items()}

    def to_string(self, max_rows: int = 20) -> str:
        """A fixed-width text rendering (used by the report driver)."""
        names = self.column_names
        if not names:
            return "(empty table)"
        shown = min(self._length, max_rows)

        def fmt(v) -> str:
            if isinstance(v, (float, np.floating)):
                return f"{v:.6g}"
            return str(v)

        rows = [[fmt(self._columns[n].values[i]) for n in names] for i in range(shown)]
        widths = [max(len(n), *(len(r[j]) for r in rows)) if rows else len(n)
                  for j, n in enumerate(names)]
        lines = ["  ".join(n.ljust(w) for n, w in zip(names, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if shown < self._length:
            lines.append(f"... ({self._length - shown} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Table({self._length} rows x {len(self._columns)} cols: {self.column_names})"


def concat(tables: Sequence[Table]) -> Table:
    """Vertically stack tables with identical schemas."""
    tables = [t for t in tables if t is not None]
    if not tables:
        return Table()
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise SchemaError(
                f"concat schema mismatch: {t.column_names} != {names}"
            )
    data = {}
    for name in names:
        parts = [t.column(name).values for t in tables]
        if any(p.dtype == object for p in parts):
            merged = np.concatenate([p.astype(object) for p in parts])
        else:
            merged = np.concatenate(parts)
        data[name] = Column(merged)
    return Table(data)
