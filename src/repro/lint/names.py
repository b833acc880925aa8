"""Name-resolution helpers shared by the AST rules.

Rules frequently need to know what a dotted expression *canonically*
refers to: ``np.random.seed`` is ``numpy.random.seed`` when the file
said ``import numpy as np``, and a bare ``rng()`` may be
``numpy.random.default_rng`` after ``from numpy.random import
default_rng as rng``.  :class:`ImportMap` collects a module's import
statements and resolves attribute chains back to canonical dotted
names, so each rule can match on the canonical spelling alone.

:func:`pool_submission` is the one table of calls that hand callables
to worker processes, read by the fork-safety rule RPR003.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple


class ImportMap:
    """Local alias -> canonical dotted name, from a module's imports."""

    def __init__(self, tree: ast.AST):
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    # ``import a.b.c`` binds ``a``; ``import a.b as x``
                    # binds ``x`` to the full path.
                    self.aliases[local] = item.name if item.asname \
                        else item.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    self.aliases[local] = f"{node.module}.{item.name}"

    def canonical(self, name: str) -> Optional[str]:
        """The canonical dotted name bound to local ``name`` (if imported)."""
        return self.aliases.get(name)

    def is_imported(self, name: str) -> bool:
        """Whether ``name`` was bound by any import statement — in which
        case ``name.attr`` is reachable by import from another process
        (a module function, or a method on an importable class)."""
        return name in self.aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_dotted(node: ast.AST, imports: ImportMap) -> Optional[str]:
    """Canonical dotted name of an attribute chain, through import aliases.

    ``np.random.seed`` -> ``numpy.random.seed`` given ``import numpy as
    np``; a chain whose root is not an import stays as written (callers
    decide whether an unresolved root matters).
    """
    name = dotted_name(node)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    canonical_root = imports.canonical(root)
    if canonical_root is None:
        return name
    return f"{canonical_root}.{rest}" if rest else canonical_root


#: Calls that hand callables to worker processes: name -> (callable
#: positions, callable keywords).  ``fan_out`` (repro.obs) matches bare
#: or dotted; every other name is a method.
POOL_SUBMISSIONS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "fan_out": (1, ("fn",)),
    "map_reduce": (2, ("map_fn", "reduce_fn")),
    "imap": (1, ("func",)),
    "imap_unordered": (1, ("func",)),
    "map_async": (1, ("func",)),
    "starmap": (1, ("func",)),
    "starmap_async": (1, ("func",)),
    "apply_async": (1, ("func",)),
    "map": (1, ()),
    "apply": (1, ()),
    "submit": (1, ()),
}
#: Generic method names that only count on pool/executor-ish receivers.
GUARDED_POOL_METHODS = frozenset({"map", "apply", "submit"})


def pool_submission(call: ast.Call) -> Optional[Tuple[str, List[ast.expr]]]:
    """``(name, callable arguments)`` when ``call`` submits callables to
    a process pool, else None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "fan_out":
        name = func.id
    elif isinstance(func, ast.Attribute) and func.attr in POOL_SUBMISSIONS:
        name = func.attr
        receiver = (dotted_name(func.value) or "").lower()
        if name in GUARDED_POOL_METHODS and "pool" not in receiver \
                and "executor" not in receiver:
            return None
    else:
        return None
    positions, keywords = POOL_SUBMISSIONS[name]
    return name, list(call.args[:positions]) + [
        kw.value for kw in call.keywords if kw.arg in keywords]
