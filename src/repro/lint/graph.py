"""Project-wide symbol tables and call resolution.

The per-file rules (RPR001-RPR007) see one AST at a time; the flow
rules (RPR008-RPR010) need to know what a call *refers to* across
module boundaries — ``from repro.util.timeutil import hours`` followed
by ``hours(x)`` is a call into another project module, and taint must
follow it.  :class:`ProjectGraph` parses every file under the lint
roots once and answers two questions:

* **symbols** — which module-level functions and classes does M define,
  including re-exports (``repro/lint/__init__`` re-exporting
  ``lint_paths`` from ``repro.lint.core`` resolves to the defining
  module, following alias chains to a small depth).
* **calls** — given a ``Call`` node in M, which project function does it
  target?  Resolution is deliberately conservative: module-level
  functions, classes (constructors), and ``Class.method`` attribute
  chains through imports resolve; calls through arbitrary objects
  (``obj.method()``) do not, and simply fall off the graph rather than
  guessing.

Everything here is pure static analysis over source text — no project
module is ever imported.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.names import ImportMap, dotted_name

#: How many re-export hops (``from .core import f`` chains) to follow.
_MAX_ALIAS_DEPTH = 8


def module_name(path: Path) -> str:
    """Dotted module name of ``path``, found by walking up ``__init__.py``.

    ``src/repro/sim/cell.py`` -> ``repro.sim.cell`` (``src`` has no
    ``__init__.py``, so the package root is ``repro``); a bare script in
    a non-package directory is just its stem.
    """
    path = Path(path)
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.resolve().parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts)


class ModuleInfo:
    """One parsed module: AST, imports, and module-level symbol table."""

    __slots__ = ("name", "path", "source", "tree", "import_map",
                 "functions", "classes", "global_values")

    def __init__(self, name: str, path: Path, source: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        self.import_map = ImportMap(tree)
        #: qualname -> def node; methods appear as ``Class.method``.
        self.functions: Dict[str, ast.AST] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        #: module-level ``NAME = <expr>`` assignments: name -> value node.
        self.global_values: Dict[str, ast.expr] = {}
        self._index()

    def _index(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self.functions[f"{node.name}.{item.name}"] = item
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.global_values[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and isinstance(node.target, ast.Name):
                self.global_values[node.target.id] = node.value

class ProjectGraph:
    """All parsed modules plus import and call resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_path: Dict[str, ModuleInfo] = {}
        #: All module names in the *project* (may exceed the parsed set:
        #: a file with a syntax error is declared but not parsed).
        self.known_modules: Set[str] = set()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, files: Iterable[Tuple[Path, str]]) -> "ProjectGraph":
        """Parse ``(path, source)`` pairs."""
        graph = cls()
        for path, source in files:
            graph.add_source(path, source)
        return graph

    def add_source(self, path: Path, source: str,
                   name: Optional[str] = None) -> Optional[ModuleInfo]:
        """Parse and register one module (skips files with syntax errors).

        ``name`` overrides the derived module name — the driver passes
        its collision-disambiguated name so two same-stem scripts in
        different non-package directories never overwrite each other's
        graph entry.
        """
        path = Path(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return None
        info = ModuleInfo(name or module_name(path), path, source, tree)
        self.modules[info.name] = info
        self._by_path[str(path)] = info
        self.known_modules.add(info.name)
        return info

    def declare_module(self, name: str) -> None:
        """Register a module *name* without parsing it (the driver
        declares every lint-set file, so imports of one that fails to
        parse still resolve)."""
        self.known_modules.add(name)

    # -- lookups -------------------------------------------------------------

    def module_for_path(self, path: Path) -> Optional[ModuleInfo]:
        return self._by_path.get(str(path))

    # -- symbol / call resolution --------------------------------------------

    def resolve_symbol(self, dotted: str,
                       _depth: int = 0) -> Optional[Tuple[ModuleInfo, str]]:
        """``(module, qualname)`` a canonical dotted name refers to.

        Splits ``dotted`` at its longest project-module prefix, then
        looks the remainder up in that module's symbol table, following
        re-export aliases (``from repro.lint.core import rule``) up to
        :data:`_MAX_ALIAS_DEPTH` hops.
        """
        if _depth > _MAX_ALIAS_DEPTH:
            return None
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            prefix = ".".join(parts[:end])
            info = self.modules.get(prefix)
            if info is None:
                continue
            rest = parts[end:]
            if not rest:
                return (info, "")
            qual = ".".join(rest)
            if qual in info.functions or qual in info.classes \
                    or qual in info.global_values:
                return (info, qual)
            # Re-export: the first component is an import alias there.
            canonical = info.import_map.canonical(rest[0])
            if canonical is not None:
                chained = ".".join([canonical] + rest[1:])
                return self.resolve_symbol(chained, _depth + 1)
            return None
        return None

    def resolve_call(self, func: ast.AST,
                     module: ModuleInfo) -> Optional[Tuple[ModuleInfo, str]]:
        """The project function/class a call target refers to (or None).

        Handles local defs (``helper()``), imported symbols
        (``hours(x)`` after ``from repro.util.timeutil import hours``),
        and dotted chains through module imports
        (``timeutil.hours(x)``); calls through arbitrary runtime objects
        stay unresolved.
        """
        if isinstance(func, ast.Name):
            if module.import_map.canonical(func.id) is None \
                    and (func.id in module.functions
                         or func.id in module.classes):
                return (module, func.id)
        dotted = dotted_name(func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        canonical_root = module.import_map.canonical(root)
        if canonical_root is not None:
            canonical = f"{canonical_root}.{rest}" if rest else canonical_root
        elif root in module.classes and rest:
            # Same-module ``Class.method`` reference.
            return (module, dotted) if dotted in module.functions else None
        else:
            canonical = dotted
        resolved = self.resolve_symbol(canonical)
        if resolved is not None and resolved[1]:
            return resolved
        return None

    def project_functions(self) -> List[Tuple[ModuleInfo, str, ast.AST]]:
        """Every function in the parsed set, deterministically ordered."""
        out: List[Tuple[ModuleInfo, str, ast.AST]] = []
        for name in sorted(self.modules):
            info = self.modules[name]
            for qual in sorted(info.functions):
                out.append((info, qual, info.functions[qual]))
        return out
