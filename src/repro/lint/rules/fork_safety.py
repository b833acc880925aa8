"""RPR003 — fork-safety: pool callables must be importable by name.

Callables handed to a process pool travel by pickle, which serializes
functions by qualified name.  A lambda, a function defined inside
another function (a closure), or a bound method of a local object
pickles either not at all or with surprising state — and the failure
only appears once ``workers > 1``, which the fast test paths never use.
This rule rejects those shapes at every pool-submission site in
:func:`repro.lint.names.pool_submission` (``repro.obs.fan_out(fn, ...)``,
``Scan.map_reduce(map_fn, reduce_fn)``, ``pool.imap(func, ...)``, ...)
so the serial and parallel paths cannot drift: module-level functions
(optionally wrapped in ``functools.partial``) are the only accepted
currency.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.core import FileContext, Rule, Violation, rule
from repro.lint.names import ImportMap, pool_submission


class _Scopes:
    """Function-nesting context: which names are local function defs."""

    def __init__(self) -> None:
        #: One set per enclosing *function* scope: names of functions
        #: and lambdas defined there (referencing one from deeper inside
        #: makes it a closure as far as pickle is concerned).
        self.stack: List[Set[str]] = []

    def is_nested_function(self, name: str) -> bool:
        return any(name in scope for scope in self.stack)


@rule
class ForkSafetyRule(Rule):
    id = "RPR003"
    summary = ("executor callable is not importable by worker processes; "
               "pass a module-level function (or functools.partial of one)")

    def check(self, context: FileContext) -> Iterator[Violation]:
        imports = context.module.import_map
        scopes = _Scopes()
        yield from self._visit_body(context, context.tree, imports, scopes,
                                    in_function=False)

    # -- traversal -----------------------------------------------------------

    def _visit_body(self, context: FileContext, node: ast.AST,
                    imports: ImportMap, scopes: _Scopes,
                    in_function: bool) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_function:
                    scopes.stack[-1].add(child.name)
                scopes.stack.append(set())
                yield from self._visit_body(context, child, imports, scopes,
                                            in_function=True)
                scopes.stack.pop()
                continue
            if in_function and isinstance(child, ast.Assign) \
                    and isinstance(child.value, ast.Lambda):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        scopes.stack[-1].add(target.id)
            if isinstance(child, ast.Call):
                yield from self._check_call(context, child, imports, scopes)
            yield from self._visit_body(context, child, imports, scopes,
                                        in_function)

    # -- the actual check ----------------------------------------------------

    def _check_call(self, context: FileContext, call: ast.Call,
                    imports: ImportMap,
                    scopes: _Scopes) -> Iterator[Violation]:
        submission = pool_submission(call)
        if submission is None:
            return
        name, candidates = submission
        for arg in candidates:
            problem = self._unpicklable(arg, imports, scopes)
            if problem is not None:
                yield self.violation(
                    context, arg,
                    f"{problem} passed to {name}() cannot be shipped "
                    "to worker processes (pickle imports callables by "
                    "name); define it at module level",
                )

    def _unpicklable(self, node: ast.AST, imports: ImportMap,
                     scopes: _Scopes) -> Optional[str]:
        """Why ``node`` won't survive pickling (None when provably fine
        or not provable — module-level defs, imports, and unknown names
        pass)."""
        if isinstance(node, ast.Lambda):
            return "lambda"
        if isinstance(node, ast.Name):
            if scopes.is_nested_function(node.id):
                return f"nested function {node.id!r} (a closure)"
            return None
        if isinstance(node, ast.Attribute):
            # functools.partial / module.function style chains are fine;
            # an attribute whose root is a plain local object is a bound
            # method and drags the whole instance through pickle.
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and imports.is_imported(root.id):
                return None
            described = ast.unparse(node)
            return f"bound method {described!r}"
        if isinstance(node, ast.Call):
            # partial(f, ...): judge the wrapped callable.
            inner_name = node.func
            target = inner_name.attr if isinstance(inner_name, ast.Attribute) \
                else (inner_name.id if isinstance(inner_name, ast.Name) else "")
            if target == "partial" and node.args:
                return self._unpicklable(node.args[0], imports, scopes)
            return None
        return None
