"""RPR006 — obs discipline: span names must be literal strings.

The span-tree structure exported by :mod:`repro.obs` is part of the
repo's determinism contract (DESIGN.md §9): two runs of the same program
must produce the same tree of span *names*.  A name computed at runtime
— an f-string with a chunk index, a ``"sim." + kind`` concatenation, a
variable — silently turns the bounded, diffable tree into an unbounded
one whose shape depends on data, and breaks the golden span-structure
assertions.  Counters may be dynamic (they are flat and merge by name);
spans may not.  This rule requires the name argument of
``obs.span(...)`` and ``obs.traced(...)`` to be a plain string literal
at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import FileContext, Rule, Violation, rule
from repro.lint.names import resolve_dotted

#: Canonical callables whose first argument names a span.
SPAN_FACTORIES = frozenset({
    "repro.obs.span",
    "repro.obs.traced",
    "repro.obs.Span",
})


def _span_name_arg(call: ast.Call) -> Optional[ast.AST]:
    """The expression passed as the span name, or None if absent."""
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == "name":
            return kw.value
    return None


@rule
class ObsDisciplineRule(Rule):
    id = "RPR006"
    summary = ("obs span names must be literal strings — computed names "
               "make the span-tree structure data-dependent")

    def check(self, context: FileContext) -> Iterator[Violation]:
        imports = context.module.import_map
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, imports)
            if resolved not in SPAN_FACTORIES:
                continue
            short = resolved.rsplit(".", 1)[1]
            arg = _span_name_arg(node)
            if arg is None:
                yield self.violation(
                    context, node,
                    f"obs.{short}() call is missing its span name")
                continue
            if not (isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)):
                described = ast.unparse(arg)
                yield self.violation(
                    context, arg,
                    f"obs.{short}() name must be a string literal, not "
                    f"{described!r}; dynamic span names make the span "
                    "tree's structure depend on data (use a counter for "
                    "per-key cardinality instead)")
