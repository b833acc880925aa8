"""Pushdown predicates: picklable filters evaluated at two levels.

Every predicate answers two questions:

* :meth:`Predicate.maybe_matches` — given a chunk's ``{column: {"min",
  "max"}}`` statistics, *could* any row match?  ``False`` proves the
  chunk is irrelevant and it is skipped without decoding (pushdown).
  ``True`` is conservative: statistics can never prove a match, only
  rule one out.
* :meth:`Predicate.mask` — given a decoded :class:`Table`, the exact
  boolean row mask.

Before either runs, :meth:`Predicate.check_kinds` rejects an ordering
(``<``, ``between``, ...) whose value cannot be ordered against the
column's kind, e.g. ``tier < 5`` on a string column: that is a
:class:`~repro.util.errors.QueryError` at plan time, not a
``TypeError`` from inside a chunk.

Predicates are plain data objects, not closures, so the parallel
executor can ship them to worker processes, and scans can reason about
which columns they touch.
"""

from __future__ import annotations

import numbers
from typing import Dict, Iterable, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.table.table import Table
from repro.util.errors import QueryError

Stats = Dict[str, Dict[str, object]]

_OPS = ("==", "!=", "<", "<=", ">", ">=")

_ORDERING_OPS = ("<", "<=", ">", ">=")


class Predicate:
    """Base class; combine with ``&``."""

    def columns(self) -> Set[str]:
        raise NotImplementedError

    def maybe_matches(self, stats: Stats) -> bool:
        raise NotImplementedError

    def mask(self, table: Table) -> np.ndarray:
        raise NotImplementedError

    def check_kinds(self, kinds: Mapping[str, str]) -> None:
        """Raise :class:`QueryError` if an ordering's value cannot be ordered
        against its column's kind (``kinds``: column name -> kind)."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __repr__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        raise NotImplementedError


def _check_orderable(kinds: Mapping[str, str], column: str, value) -> None:
    kind = kinds.get(column)
    if kind is None:
        return
    expected = str if kind == "str" else numbers.Real
    if not isinstance(value, expected):
        raise QueryError(f"cannot order {kind} column {column!r} "
                         f"against {value!r}")


def _bounds(stats: Stats, column: str) -> Tuple[object, object]:
    """(min, max) for ``column``, or ``(None, None)`` when unknown."""
    entry = stats.get(column)
    if not entry:
        return None, None
    return entry.get("min"), entry.get("max")


class Compare(Predicate):
    """``column <op> value`` for a scalar value."""

    def __init__(self, column: str, op: str, value):
        if op not in _OPS:
            raise QueryError(f"unknown operator {op!r}; use one of {_OPS}")
        self.column = column
        self.op = op
        self.value = value

    def columns(self) -> Set[str]:
        return {self.column}

    def maybe_matches(self, stats: Stats) -> bool:
        lo, hi = _bounds(stats, self.column)
        if lo is None:
            return True
        v, op = self.value, self.op
        try:
            if op == "==":
                return lo <= v <= hi
            if op == "!=":
                return not (lo == hi == v)
            if op == "<":
                return lo < v
            if op == "<=":
                return lo <= v
            if op == ">":
                return hi > v
            return hi >= v
        except TypeError:
            # Incomparable stat/value types (e.g. str stats vs numeric
            # predicate): never prune on type confusion.
            return True

    def mask(self, table: Table) -> np.ndarray:
        column = table.column(self.column)
        return {
            "==": column.__eq__, "!=": column.__ne__,
            "<": column.__lt__, "<=": column.__le__,
            ">": column.__gt__, ">=": column.__ge__,
        }[self.op](self.value)

    def check_kinds(self, kinds: Mapping[str, str]) -> None:
        if self.op in _ORDERING_OPS:
            _check_orderable(kinds, self.column, self.value)

    def describe(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


class Between(Predicate):
    """Inclusive range test (SQL ``BETWEEN``) — the time-window workhorse."""

    def __init__(self, column: str, lo, hi):
        self.column = column
        self.lo = lo
        self.hi = hi

    def columns(self) -> Set[str]:
        return {self.column}

    def maybe_matches(self, stats: Stats) -> bool:
        lo, hi = _bounds(stats, self.column)
        if lo is None:
            return True
        try:
            return hi >= self.lo and lo <= self.hi
        except TypeError:
            return True

    def mask(self, table: Table) -> np.ndarray:
        values = table.column(self.column).values
        return np.asarray((values >= self.lo) & (values <= self.hi), dtype=bool)

    def check_kinds(self, kinds: Mapping[str, str]) -> None:
        _check_orderable(kinds, self.column, self.lo)
        _check_orderable(kinds, self.column, self.hi)

    def describe(self) -> str:
        return f"({self.column} between {self.lo!r} and {self.hi!r})"


class IsIn(Predicate):
    """Membership in a finite value set."""

    def __init__(self, column: str, values: Iterable):
        self.column = column
        self.values = tuple(values)

    def columns(self) -> Set[str]:
        return {self.column}

    def maybe_matches(self, stats: Stats) -> bool:
        lo, hi = _bounds(stats, self.column)
        if lo is None:
            return True
        try:
            return any(lo <= v <= hi for v in self.values)
        except TypeError:
            return True

    def mask(self, table: Table) -> np.ndarray:
        return table.column(self.column).isin(self.values)

    def describe(self) -> str:
        return f"({self.column} in {list(self.values)!r})"


class And(Predicate):
    """Conjunction; nested ``And`` parts flatten into one."""

    def __init__(self, *parts: Predicate):
        flat = []
        for part in parts:
            if isinstance(part, And):
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.parts: Sequence[Predicate] = tuple(flat)

    def columns(self) -> Set[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def maybe_matches(self, stats: Stats) -> bool:
        return all(part.maybe_matches(stats) for part in self.parts)

    def mask(self, table: Table) -> np.ndarray:
        out = np.ones(len(table), dtype=bool)
        for part in self.parts:
            out &= part.mask(table)
        return out

    def check_kinds(self, kinds: Mapping[str, str]) -> None:
        for part in self.parts:
            part.check_kinds(kinds)

    def describe(self) -> str:
        return "(" + " & ".join(p.describe() for p in self.parts) + ")"

