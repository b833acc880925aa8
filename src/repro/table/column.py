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
_KINDS = KINDS
_DTYPES = {"float": np.float64, "int": np.int64, "bool": bool, "str": object}


def empty_column(kind: str) -> "Column":
    """A zero-row column of ``kind`` (``Column([])`` would be float)."""
    if kind not in _DTYPES:
        raise SchemaError(f"unknown column kind {kind!r}")
    return Column(np.empty(0, dtype=_DTYPES[kind]))


def _coerce(values: Any) -> np.ndarray:
    """Normalize arbitrary input into one of the four supported dtypes."""
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
    # it ``<U``, whose objects come back as plain str) or an object array
    # holding only exact str.  Anything else — str subclasses such as
    # ``np.str_``, or bad elements — takes the per-element check.
    if arr.dtype.kind == "U":
        return arr.astype(object)
    if arr.dtype == object and set(map(type, arr)) <= {str}:
        return arr.copy()
    out = np.empty(len(arr), dtype=object)
    for i, v in enumerate(arr):
        if not isinstance(v, str):
            raise SchemaError(
                f"unsupported column element {v!r} of type {type(v).__name__}; "
                "columns hold floats, ints, bools, or strings"
            )
        out[i] = v
    return out


class Column:
    """A single named-less column of homogeneous values."""

    __slots__ = ("_data",)

    def __init__(self, values: Union["Column", Sequence, np.ndarray]):
        if isinstance(values, Column):
            self._data = values._data
        else:
            self._data = _coerce(values)

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
        return Column(out)

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

    # -- arithmetic --------------------------------------------------------

    def _binop(self, other, fn) -> "Column":
        rhs = other._data if isinstance(other, Column) else other
        return Column(fn(self._data, rhs))

    def __add__(self, other) -> "Column":
        return self._binop(other, np.add)

    def __radd__(self, other) -> "Column":
        return Column(np.add(other, self._data))

    def __sub__(self, other) -> "Column":
        return self._binop(other, np.subtract)

    def __rsub__(self, other) -> "Column":
        return Column(np.subtract(other, self._data))

    def __mul__(self, other) -> "Column":
        return self._binop(other, np.multiply)

    def __rmul__(self, other) -> "Column":
        return Column(np.multiply(other, self._data))

    def __truediv__(self, other) -> "Column":
        return self._binop(other, np.true_divide)

    def __rtruediv__(self, other) -> "Column":
        return Column(np.true_divide(other, self._data))

    def __neg__(self) -> "Column":
        return Column(np.negative(self._data))

    # -- membership & null-ish helpers --------------------------------------

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

    def var(self) -> float:
        """Unbiased (ddof=1) sample variance; 0 for singleton columns."""
        arr = self._numeric()
        if len(arr) < 2:
            return 0.0
        return float(arr.var(ddof=1))

    def median(self) -> float:
        return float(np.median(self._numeric()))

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self._numeric(), q))

    def unique(self) -> List:
        """Sorted unique values."""
        return sorted(set(self._data.tolist())) if self.kind == "str" else np.unique(self._data).tolist()

    def to_list(self) -> List:
        return self._data.tolist()

    def astype(self, kind: str) -> "Column":
        """Cast to another supported kind."""
        if kind not in _KINDS:
            raise SchemaError(f"unknown column kind {kind!r}")
        if kind == "str":
            return Column([str(v) for v in self._data])
        if kind == "bool":
            return Column(self._data.astype(bool))
        if kind == "int":
            return Column(self._data.astype(np.int64))
        return Column(self._data.astype(np.float64))

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._data[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self.kind}>[{preview}{suffix}] (n={len(self)})"
