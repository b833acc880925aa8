"""RPR007 — hot-loop guards: telemetry hooks in simulator loops stay gated.

The flight recorder and the sampling profiler are *opt-in* telemetry:
an unrecorded simulation must pay at most one comparison per event for
their existence (DESIGN.md §11).  That only holds if every
recorder/profiler call inside a simulator loop is lexically behind an
``if`` that names the handle — the pattern the event loop uses::

    if recorder is not None and time >= recorder.next_due:
        recorder.tick(time)

An unguarded ``recorder.tick(time)`` in the same loop would put a
Python call on the per-event path of every run, recorded or not, which
is exactly the slow creep the <=5% instrumentation budget exists to
stop.  The rule is scoped to :mod:`repro.sim`: set-up code (attach in a
constructor, ``finish`` after the loop) is free to call the recorder
unguarded, and the obs layer itself obviously may.

Mechanics: a call whose function's attribute chain mentions a
recorder/profiler handle (an identifier containing ``recorder`` or
``profiler``), lexically inside a ``for``/``while`` body (or a
comprehension), must have an enclosing ``if`` — inside or outside the
loop, up to the nearest function boundary — whose test mentions such a
handle.  A guard hoisted *outside* the loop is the cheapest form and
counts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List

from repro.lint.core import FileContext, Rule, Violation, rule

#: Directories (package components) the rule polices.
SCOPED_DIRS = ("sim",)

#: Substrings marking an identifier as a telemetry handle.
HANDLE_MARKERS = ("recorder", "profiler")

#: Nodes whose bodies re-execute per iteration.
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: Walking up stops here: an enclosing def runs on its own schedule.
_BOUNDARIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Module)


def _chain_identifiers(node: ast.AST) -> List[str]:
    """Identifiers along a call target: ``self.recorder.tick`` ->
    ``["tick", "recorder", "self"]`` (order is irrelevant here)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts


def _is_handle(identifier: str) -> bool:
    lowered = identifier.lower()
    return any(marker in lowered for marker in HANDLE_MARKERS)


def _test_mentions_handle(test: ast.AST) -> bool:
    """Whether an ``if`` test names any telemetry handle."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Name) and _is_handle(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_handle(sub.attr):
            return True
    return False


@rule
class HotLoopGuardRule(Rule):
    id = "RPR007"
    summary = ("recorder/profiler call in a simulator loop without an "
               "if-guard naming the handle")

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not context.in_directory(*SCOPED_DIRS):
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(context.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if not any(_is_handle(part)
                       for part in _chain_identifiers(node.func)):
                continue
            if self._unguarded_in_loop(node, parents):
                yield self.violation(
                    context, node,
                    "recorder/profiler call on a simulator loop path must "
                    "be behind an 'if' naming the handle (e.g. 'if recorder "
                    "is not None: ...'), so unrecorded runs pay at most one "
                    "comparison per event",
                )

    @staticmethod
    def _unguarded_in_loop(call: ast.Call,
                           parents: Dict[ast.AST, ast.AST]) -> bool:
        in_loop = False
        prev: ast.AST = call
        cursor = parents.get(call)
        while cursor is not None and not isinstance(cursor, _BOUNDARIES):
            if isinstance(cursor, _COMPREHENSIONS):
                in_loop = True
            elif isinstance(cursor, _LOOPS) and prev not in cursor.orelse:
                # The loop body and a while's test run per iteration; a
                # for's iterable is evaluated once, outside the loop.
                if not (isinstance(cursor, (ast.For, ast.AsyncFor))
                        and prev is cursor.iter):
                    in_loop = True
            elif isinstance(cursor, ast.If) and prev in cursor.body \
                    and _test_mentions_handle(cursor.test):
                return False
            prev, cursor = cursor, parents.get(cursor)
        return in_loop
