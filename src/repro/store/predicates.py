"""Pushdown predicates: picklable filters evaluated at two levels.

Every predicate answers two questions:

* :meth:`Predicate.verdicts` — given every chunk's statistics
  (:meth:`~repro.store.manifest.Manifest.bounds`), one verdict per
  chunk: ``False`` when no row can match (the chunk is skipped without
  decoding: pushdown), ``True`` when every row matches (nothing is
  filtered), else the residual predicate the chunk's rows still need.
  For a conjunction the residual is the parts not proved true there.
* :meth:`Predicate.mask` — given a decoded :class:`Table`, the exact
  boolean row mask.

A part is proved by evaluating its own :meth:`~Predicate.mask` on the
chunks' bounds, each a column of the stored column's kind, so the
proof and the row test share one comparison and one dtype promotion
(an ``int`` column against a ``float`` value compares as float64 in
both).  "Every row" is proved two ways:

* when a chunk's min equals its max, every row holds that value, and
  the mask at the min is the answer for any part;
* for a part whose matching values form an interval — ``between``,
  ``==``, ``<``, ``<=``, ``>`` and ``>=`` — every row matches when
  both the min and the max do.

Both need a chunk without NaN in the column: bounds skip NaN, which no
ordering matches and ``!=`` always does.  "No row" needs only the
bounds: an interval part that the max falls below or the min above,
an ``in`` whose values all lie outside, or a single-valued chunk the
mask rejects.  Anything unproved stays a residual, so statistics never
change an answer, only how much of it is computed.

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
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple, Union

import numpy as np

from repro.store.manifest import ColumnBounds
from repro.table.column import Column
from repro.table.table import Table
from repro.util.errors import QueryError

#: One chunk's verdict: ``False`` (no row matches), ``True`` (every row
#: matches) or the residual predicate its rows still need.
Verdict = Union[bool, "Predicate"]

#: Per chunk: (no row can match, every row matches).
Proofs = Tuple[np.ndarray, np.ndarray]

_OPS = ("==", "!=", "<", "<=", ">", ">=")

_ORDERING_OPS = ("<", "<=", ">", ">=")


class Predicate:
    """Base class; combine with ``&``."""

    def columns(self) -> Set[str]:
        raise NotImplementedError

    def conjuncts(self) -> Sequence["Predicate"]:
        """The parts a verdict proves, and may drop, one by one."""
        return (self,)

    def proofs(self, bounds: Mapping[str, ColumnBounds],
               chunks: int) -> Proofs:
        """What ``bounds`` prove of each chunk: (no row can match, every
        row matches), for a conjunct (see the module docstring)."""
        raise NotImplementedError

    def verdicts(self, bounds: Mapping[str, ColumnBounds],
                 chunks: int) -> List[Verdict]:
        """One :data:`Verdict` per chunk, from the statistics of all
        ``chunks`` chunks."""
        parts = self.conjuncts()
        proofs = [part.proofs(bounds, chunks) for part in parts]
        pruned = np.logical_or.reduce([none for none, _ in proofs])
        unproved = ~np.array([every for _, every in proofs], dtype=bool)
        residuals: Dict[Tuple[bool, ...], Verdict] = {}
        out: List[Verdict] = []
        for none, key in zip(pruned.tolist(), map(tuple, unproved.T.tolist())):
            if none:
                out.append(False)
                continue
            residual = residuals.get(key)
            if residual is None:
                kept = [part for part, keep in zip(parts, key) if keep]
                residual = residuals[key] = (
                    True if not kept else kept[0] if len(kept) == 1
                    else And(*kept))
            out.append(residual)
        return out

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


class _ColumnTest(Predicate):
    """A test of one column's values; subclasses say which interval
    bounds rule a chunk out (:meth:`_outside`)."""

    column: str
    #: Whether the matching values form an interval of the column's order.
    interval = True

    def columns(self) -> Set[str]:
        return {self.column}

    def proofs(self, bounds: Mapping[str, ColumnBounds],
               chunks: int) -> Proofs:
        stats = bounds.get(self.column)
        if stats is None:
            return np.zeros(chunks, dtype=bool), np.zeros(chunks, dtype=bool)
        try:
            at_lo = self.mask(Table({self.column: stats.lo}))
            at_hi = self.mask(Table({self.column: stats.hi}))
            outside = self._outside(stats.lo, stats.hi, at_lo, at_hi)
            single = stats.nan_free & (stats.lo.values == stats.hi.values)
        except TypeError:
            # Bounds of another kind than the value (a str column
            # against a number): nothing is proved.
            return np.zeros(chunks, dtype=bool), np.zeros(chunks, dtype=bool)
        every = at_lo & at_hi & (stats.nan_free if self.interval else single)
        none = (stats.known & outside) | (single & ~at_lo)
        return none, every

    def _outside(self, lo: Column, hi: Column, at_lo: np.ndarray,
                 at_hi: np.ndarray) -> np.ndarray:
        """Per chunk: its bounds show no value in ``[lo, hi]`` matches."""
        raise NotImplementedError


class Compare(_ColumnTest):
    """``column <op> value`` for a scalar value."""

    def __init__(self, column: str, op: str, value):
        if op not in _OPS:
            raise QueryError(f"unknown operator {op!r}; use one of {_OPS}")
        self.column = column
        self.op = op
        self.value = value
        self.interval = op != "!="

    def _outside(self, lo, hi, at_lo, at_hi):
        if self.op in ("<", "<="):
            return ~at_lo  # the smallest value fails, so every one does
        if self.op in (">", ">="):
            return ~at_hi
        if self.op == "==":
            return (lo > self.value) | (hi < self.value)
        return np.zeros(len(lo), dtype=bool)  # != : only a single value

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


class Between(_ColumnTest):
    """Inclusive range test (SQL ``BETWEEN``) — the time-window workhorse."""

    def __init__(self, column: str, lo, hi):
        self.column = column
        self.lo = lo
        self.hi = hi

    def _outside(self, lo, hi, at_lo, at_hi):
        return ~(hi >= self.lo) | ~(lo <= self.hi)

    def mask(self, table: Table) -> np.ndarray:
        values = table.column(self.column).values
        return np.asarray((values >= self.lo) & (values <= self.hi), dtype=bool)

    def check_kinds(self, kinds: Mapping[str, str]) -> None:
        _check_orderable(kinds, self.column, self.lo)
        _check_orderable(kinds, self.column, self.hi)

    def describe(self) -> str:
        return f"({self.column} between {self.lo!r} and {self.hi!r})"


class IsIn(_ColumnTest):
    """Membership in a finite value set."""

    interval = False

    def __init__(self, column: str, values: Iterable):
        self.column = column
        self.values = tuple(values)

    def _outside(self, lo, hi, at_lo, at_hi):
        out = np.ones(len(lo), dtype=bool)
        for value in self.values:
            out &= (lo > value) | (hi < value)
        return out

    def mask(self, table: Table) -> np.ndarray:
        return table.column(self.column).isin(self.values)

    def describe(self) -> str:
        return f"({self.column} in {list(self.values)!r})"


class And(Predicate):
    """Conjunction; nested ``And`` parts flatten into one."""

    def __init__(self, *parts: Predicate):
        flat: List[Predicate] = []
        for part in parts:
            flat.extend(part.conjuncts())
        self.parts: Tuple[Predicate, ...] = tuple(flat)

    def conjuncts(self) -> Sequence[Predicate]:
        return self.parts

    def columns(self) -> Set[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

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
