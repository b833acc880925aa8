"""RPR001 — schema consistency: column strings must exist in their table.

Every analysis reads trace tables through string column names
(``iu.column("avg_cpu")``, ``scan.select("tier")``,
``Compare("priority", ">=", 360)``).  A typo'd or renamed column is not
a syntax error and often not even a unit-test failure — it surfaces as a
``SchemaError`` deep inside whichever query first touches it, possibly
hours into a month-scale run.  This rule resolves, per function, which
canonical table each expression refers to (dataset properties like
``trace.instance_usage``, ``trace.tables["..."]`` subscripts, and
``store.scan("...")`` chains) and checks every literal column reference
against :mod:`repro.trace.schema`.

The analysis is deliberately precision-first: when the table cannot be
statically resolved (function parameters, derived tables, dynamic
names), the reference is *not* checked.  Everything it does flag is a
real schema mismatch.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.core import FileContext, Rule, Violation, rule
from repro.trace.schema import TABLE_COLUMNS

#: Dataset attribute names that canonically name a table.
TABLE_PROPERTIES = frozenset(TABLE_COLUMNS)

#: Table methods whose string arguments are column names of that table.
TABLE_COLUMN_METHODS = frozenset({"column", "select", "distinct", "sort"})

#: Table methods returning the same table shape (tracking survives;
#: ``distinct`` dedupes rows but keeps every column).
TABLE_PRESERVING_METHODS = frozenset({"filter", "take", "sort", "distinct"})

#: Scan methods returning a scan over the same table.
SCAN_PRESERVING_METHODS = frozenset({"where", "select"})

#: Predicate constructors whose first argument is a column name.
PREDICATE_CONSTRUCTORS = frozenset({"Compare", "Between", "IsIn"})

#: Resolution results: ("table", name) or ("scan", name).
_Resolved = Optional[Tuple[str, str]]


class _TableResolver(ast.NodeVisitor):
    """Per-function, order-of-appearance table/scan identity tracking."""

    def __init__(self, rule_: "SchemaConsistencyRule", context: FileContext):
        self.rule = rule_
        self.context = context
        self.violations: List[Violation] = []
        #: Stack of variable-binding scopes (module, then one per function).
        self.bindings: List[Dict[str, _Resolved]] = [{}]

    # -- resolution ----------------------------------------------------------

    def lookup(self, name: str) -> _Resolved:
        for scope in reversed(self.bindings):
            if name in scope:
                return scope[name]
        return None

    def resolve(self, node: ast.AST) -> _Resolved:
        """What table/scan ``node`` denotes, or None when unprovable."""
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in TABLE_PROPERTIES:
                return ("table", node.attr)
            return None
        if isinstance(node, ast.Subscript):
            # X.tables["collection_events"] (and X["collection_events"]
            # when X itself resolves to nothing) -> that table.
            if isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "tables":
                key = node.slice
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str) \
                        and key.value in TABLE_COLUMNS:
                    return ("table", key.value)
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                return None
            if func.attr == "scan" and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                return ("scan", node.args[0].value)
            receiver = self.resolve(func.value)
            if receiver is None:
                return None
            kind, table = receiver
            if kind == "scan" and func.attr in SCAN_PRESERVING_METHODS:
                return receiver
            if kind == "table" and func.attr in TABLE_PRESERVING_METHODS:
                return receiver
            if kind == "scan" and func.attr == "to_table":
                return ("table", table)
            return None
        return None

    # -- scope handling ------------------------------------------------------

    def _visit_function(self, node) -> None:
        self.bindings.append({})
        self.generic_visit(node)
        self.bindings.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        resolved = self.resolve(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                # Unknown values overwrite stale bindings: once a name is
                # reassigned to something unprovable, stop checking it.
                self.bindings[-1][target.id] = resolved

    # -- checks --------------------------------------------------------------

    def _check_column(self, table: str, arg: ast.expr, where: str) -> None:
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return
        if arg.value in TABLE_COLUMNS[table]:
            return
        self.violations.append(self.rule.violation(
            self.context, arg,
            f"column {arg.value!r} does not exist in table {table!r} "
            f"({where}); known columns: {TABLE_COLUMNS[table]}",
        ))

    def _check_predicates(self, table: str, node: ast.AST) -> None:
        """Validate predicate-constructor column args under a where()."""
        for call in ast.walk(node):
            if not isinstance(call, ast.Call) or not call.args:
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in PREDICATE_CONSTRUCTORS:
                self._check_column(table, call.args[0], f"predicate {name}")

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = self.resolve(func.value)
        if receiver is None:
            return
        kind, table = receiver
        if kind == "table" and func.attr in TABLE_COLUMN_METHODS:
            for arg in node.args:
                self._check_column(table, arg, f"Table.{func.attr}")
        elif kind == "scan":
            if func.attr == "select":
                for arg in node.args:
                    self._check_column(table, arg, "Scan.select")
            elif func.attr == "where":
                for arg in node.args:
                    self._check_predicates(table, arg)


@rule
class SchemaConsistencyRule(Rule):
    id = "RPR001"
    summary = ("column name not in the canonical schema of the table "
               "being read (repro/trace/schema.py)")

    def check(self, context: FileContext) -> Iterator[Violation]:
        resolver = _TableResolver(self, context)
        resolver.visit(context.tree)
        yield from resolver.violations
