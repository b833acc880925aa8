"""Typed column: a thin, immutable-by-convention wrapper over a numpy array.

Columns normalize their storage to one of four kinds:

* ``float`` — ``float64``
* ``int``   — ``int64``
* ``bool``  — ``bool``
* ``str``   — ``object`` dtype holding Python strings

Comparison operators return plain boolean numpy arrays so they compose
with ``&``/``|``/``~`` and feed straight into :meth:`Table.filter`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Union

import numpy as np

from repro.util.errors import SchemaError

#: The four storage kinds every column normalizes to (public: the store
#: codec and the trace schema declare kinds against this set).
KINDS = ("float", "int", "bool", "str")
_DTYPES = {"float": np.float64, "int": np.int64, "bool": bool, "str": object}
#: Numeric dtypes a column stores as-is.
_NATIVE = frozenset(map(np.dtype, (np.float64, np.int64, bool)))


def empty_column(kind: str) -> "Column":
    """A zero-row column of ``kind`` (``Column([])`` would be float)."""
    if kind not in _DTYPES:
        raise SchemaError(f"unknown column kind {kind!r}")
    return Column(np.empty(0, dtype=_DTYPES[kind]))


def _coerce(values: Any) -> np.ndarray:
    """Normalize arbitrary input into one of the four supported dtypes."""
    # Fast path: the store's payload views and most kernel outputs are
    # already 1-D float64/int64/bool arrays, kept as they are.
    if (type(values) is np.ndarray and values.ndim == 1
            and values.dtype in _NATIVE):
        return values
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise SchemaError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr
    # copy=False keeps an already-int64/float64 array as-is — in
    # particular the store's read-only views over chunk bytes (columns
    # are immutable-by-convention anyway).
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False)
    if np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64, copy=False)
    # Everything else (strings, mixed python objects) is stored as objects;
    # require all elements to be strings for predictable semantics.  The
    # common inputs pass in one C-level pass: a list of str (numpy makes
    # it ``<U``) or an object array holding only exact str.  Anything
    # else takes the per-element check — str subclasses such as
    # ``np.str_`` pass it, while a non-str element raises even where
    # numpy has already stringified it (``["a", 1]`` is ``<U`` too).
    if arr.dtype.kind == "U":
        if not isinstance(values, np.ndarray):
            # ``<U`` drops trailing NULs ("tail\0" -> "tail"), so a
            # sequence of exact str keeps its own objects.
            out = np.empty(len(arr), dtype=object)
            out[:] = values
            if set(map(type, out)) <= {str}:
                return out
            _require_str(out)
        return arr.astype(object)
    if arr.dtype == object and set(map(type, arr)) <= {str}:
        return arr.copy()
    _require_str(arr)
    return arr.astype(object)


def _require_str(values: np.ndarray) -> None:
    for v in values:
        if not isinstance(v, str):
            raise SchemaError(
                f"unsupported column element {v!r} of type {type(v).__name__}; "
                "columns hold floats, ints, bools, or strings"
            )


class Column:
    """A single named-less column of homogeneous values."""

    __slots__ = ("_data",)

    def __init__(self, values: Union["Column", Sequence, np.ndarray]):
        if isinstance(values, Column):
            self._data = values._data
        else:
            self._data = _coerce(values)

    @classmethod
    def from_codes(cls, codes: np.ndarray, names: Sequence[str]) -> "Column":
        """The ``str`` column ``names[codes]``, e.g. a code-to-string take.

        Equal to ``Column(names[codes])``, but the every-element ``str``
        check runs once over the small ``names`` table instead of over
        every row.
        """
        table = np.empty(len(names), dtype=object)
        table[:] = list(names)
        for name in table:
            if not isinstance(name, str):
                raise SchemaError(
                    f"unsupported code-table entry {name!r} of type "
                    f"{type(name).__name__}; code tables hold strings")
        return cls._typed(table[np.asarray(codes)])

    @classmethod
    def _typed(cls, values: np.ndarray) -> "Column":
        """A column over ``values``, a 1-D array already in one of the
        four storage dtypes (a take from a column, say): no check, no
        copy."""
        column = cls.__new__(cls)
        column._data = values
        return column

    # -- basic protocol ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The underlying numpy array (do not mutate)."""
        return self._data

    @property
    def kind(self) -> str:
        """One of ``float``, ``int``, ``bool``, ``str``."""
        if self._data.dtype == bool:
            return "bool"
        if self._data.dtype == np.int64:
            return "int"
        if self._data.dtype == np.float64:
            return "float"
        return "str"

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __getitem__(self, idx):
        out = self._data[idx]
        if isinstance(idx, (int, np.integer)):
            return out
        # A mask, slice or index array keeps the dtype: no coercion.
        return Column._typed(out) if out.ndim == 1 else Column(out)

    def __eq__(self, other) -> np.ndarray:  # type: ignore[override]
        return self._compare(other, "eq")

    def __ne__(self, other) -> np.ndarray:  # type: ignore[override]
        return ~self._compare(other, "eq")

    def __lt__(self, other) -> np.ndarray:
        return self._compare(other, "lt")

    def __le__(self, other) -> np.ndarray:
        return self._compare(other, "le")

    def __gt__(self, other) -> np.ndarray:
        return self._compare(other, "gt")

    def __ge__(self, other) -> np.ndarray:
        return self._compare(other, "ge")

    def __hash__(self):  # columns are not hashable (they define __eq__ as elementwise)
        raise TypeError("Column is not hashable")

    def _compare(self, other, op: str) -> np.ndarray:
        rhs = other._data if isinstance(other, Column) else other
        if op == "eq":
            return np.asarray(self._data == rhs, dtype=bool)
        if op == "lt":
            return np.asarray(self._data < rhs, dtype=bool)
        if op == "le":
            return np.asarray(self._data <= rhs, dtype=bool)
        if op == "gt":
            return np.asarray(self._data > rhs, dtype=bool)
        if op == "ge":
            return np.asarray(self._data >= rhs, dtype=bool)
        raise AssertionError(op)

    # -- membership -----------------------------------------------------------

    def isin(self, values: Iterable) -> np.ndarray:
        """Boolean mask of rows whose value is in ``values``."""
        vals = list(values)
        if self.kind == "str":
            return np.fromiter(map(set(vals).__contains__, self._data),
                               dtype=bool, count=len(self))
        return np.isin(self._data, vals)

    # -- reductions ----------------------------------------------------------

    def _numeric(self) -> np.ndarray:
        if self.kind == "str":
            raise SchemaError("numeric reduction on a string column")
        return self._data

    def sum(self) -> float:
        return float(self._numeric().sum())

    def mean(self) -> float:
        return float(self._numeric().mean())

    def min(self):
        if len(self._data) == 0:
            raise SchemaError("min of empty column")
        return self._data.min()

    def max(self):
        if len(self._data) == 0:
            raise SchemaError("max of empty column")
        return self._data.max()

    def to_list(self) -> List:
        return self._data.tolist()

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._data[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self.kind}>[{preview}{suffix}] (n={len(self)})"
