"""RPR009 — fork-share races: no parent-process globals in worker code.

The store executor, the multi-cell sim driver, and the campaign runner
all fan work out over ``multiprocessing`` pools.  Under ``fork`` start
methods a worker begins with a *copy* of the parent's memory: a
module-level dict the parent mutated is silently stale in the worker,
a dict the worker mutates silently never reaches the parent, and under
``spawn`` the same global is re-created empty — three different
behaviours for one line of code, none of them an error message.  The
sanctioned escape is the scoped-registry pattern
(:func:`repro.obs.registry.scoped_registry`): workers record into a
fresh registry and ship an explicit snapshot home.

This rule finds every function *submitted to a pool* (``map_reduce``
callables, ``pool.imap``/``map``/``apply_async``/... targets, through
``functools.partial`` and local aliases), takes the transitive closure
over the project call graph, and inside that worker-callable set flags
direct reads and writes of module-level **mutable** state — dict/list/
set displays and constructors, and instances of project classes —
whenever that state is also written at runtime somewhere in the
project (writes in worker code are flagged unconditionally).  Globals
defined in ``repro.obs.registry`` itself are exempt: they *are* the
pattern.

Like the other flow rules this is whole-program: the submission site,
the worker function, and the shared global are routinely in three
different files, which is exactly why the per-file RPR003 cannot see
the race.

Unlike RPR008/RPR010, whose facts flow *with* the import direction
(a file's verdict depends only on modules it imports), RPR009 facts
flow *against* it: the submission site importing the worker decides
the worker's verdict.  The analysis therefore runs in two stages over
the whole project:

1. :func:`summarize_module` extracts a small **fact summary** per
   module (mutable globals, global accesses, resolved call edges,
   pool-submission seeds).
2. :class:`_ShareAnalysis` combines every module's summary into the
   worker closure, the runtime-write facts, and the verdicts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.lint.core import FileContext, Rule, Violation, rule
from repro.lint.flow import Hit
from repro.lint.graph import ModuleInfo, ProjectGraph
from repro.lint.names import dotted_name

#: Pool-submission attribute methods that always take a callable first.
POOL_METHODS = frozenset({"imap", "imap_unordered", "map_async",
                          "starmap", "starmap_async", "apply_async"})
#: Generic names that only count on pool/executor-ish receivers.
POOL_METHODS_GUARDED = frozenset({"map", "apply", "submit"})
#: The store executor's fan-out entry (see RPR003).
EXECUTOR_METHODS = frozenset({"map_reduce"})
EXECUTOR_KEYWORDS = ("map_fn", "reduce_fn")

#: Constructor calls producing shared-mutable module state.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "collections.defaultdict",
    "collections.OrderedDict", "collections.deque", "collections.Counter",
})

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "clear", "pop", "popleft",
    "popitem", "setdefault", "extend", "remove", "discard", "insert",
})

#: The scoped-registry implementation is the sanctioned shared state.
EXEMPT_MODULES = frozenset({"repro.obs.registry"})

_MAX_ALIAS_HOPS = 3


class _Global(NamedTuple):
    module: str
    name: str


class _Access(NamedTuple):
    target: _Global
    line: int
    col: int
    kind: str  # "read" | "write" | "rebind"


class _Summary(NamedTuple):
    """One module's RPR009 facts (see :func:`summarize_module`)."""

    #: Names of module-level globals holding mutable state.
    mutables: List[str]
    #: qualname -> candidate global accesses inside that function.
    accesses: Dict[str, List[_Access]]
    #: qualname -> resolved project callees (module, qualname).
    calls: Dict[str, List[Tuple[str, str]]]
    #: (callee module, callee qualname, entry) per pool submission.
    seeds: List[Tuple[str, str, str]]


def _mutable_globals(info: ModuleInfo, graph: ProjectGraph) -> Set[str]:
    """Names of ``info``'s module-level assignments holding mutable state."""
    out: Set[str] = set()
    for name, value in info.global_values.items():
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.SetComp, ast.DictComp)):
            out.add(name)
        elif isinstance(value, ast.Call):
            canonical = _canonical(value.func, info)
            if canonical in MUTABLE_CONSTRUCTORS:
                out.add(name)
                continue
            resolved = graph.resolve_call(value.func, info)
            if resolved is not None and resolved[1] in resolved[0].classes:
                out.add(name)
    return out


def _canonical(node: ast.AST, info: ModuleInfo) -> Optional[str]:
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    canonical_root = info.import_map.canonical(root)
    if canonical_root is None:
        return dotted
    return f"{canonical_root}.{rest}" if rest else canonical_root


def _local_names(fn: ast.AST) -> Set[str]:
    """Names bound locally in ``fn`` (params + assignments), minus any
    declared ``global``."""
    out: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for a in (args.posonlyargs + args.args + args.kwonlyargs):
            out.add(a.arg)
        if args.vararg is not None:
            out.add(args.vararg.arg)
        if args.kwarg is not None:
            out.add(args.kwarg.arg)
    declared_global: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    out.add(name_node.id)
    return out - declared_global


# ---------------------------------------------------------------------------
# stage 1 — per-module fact summaries


def _candidate_ref(node: ast.AST, info: ModuleInfo,
                   local: Set[str],
                   known_modules: Set[str]) -> Optional[_Global]:
    """The module-level global a Name/Attribute reference *may* point at.

    Candidates are filtered locally only (own globals for bare names,
    project-module attribute roots for dotted ones); whether the target
    is actually tracked mutable state is decided later, globally, in
    :class:`_ShareAnalysis`, once every module's globals are known.
    """
    if isinstance(node, ast.Name):
        if node.id in local or node.id not in info.global_values:
            return None
        return _Global(info.name, node.id)
    if isinstance(node, ast.Attribute):
        canonical = _canonical(node, info)
        if canonical is None:
            return None
        module_part, _, attr = canonical.rpartition(".")
        if module_part not in known_modules:
            return None
        return _Global(module_part, attr)
    return None


def _scan_function(info: ModuleInfo, fn: ast.AST,
                   known_modules: Set[str]) -> List[_Access]:
    """Candidate accesses of module-level globals inside ``fn``."""
    local = _local_names(fn)
    declared_global: Set[str] = set()
    out: List[_Access] = []

    def ref(node: ast.AST) -> Optional[_Global]:
        return _candidate_ref(node, info, local, known_modules)

    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    # Receivers already accounted for by an enclosing mutator call or
    # subscript (their Name/Attribute children appear later in the
    # walk) — one syntactic access, one recorded access.
    consumed: Set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in declared_global \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            # Rebinding any module global from a function is a runtime
            # write, mutable value-shape or not.
            out.append(_Access(_Global(info.name, node.id), node.lineno,
                               node.col_offset, "rebind"))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATOR_METHODS:
            consumed.add(id(node.func))
            consumed.add(id(node.func.value))
            target = ref(node.func.value)
            if target is not None:
                out.append(_Access(target, node.lineno,
                                   node.col_offset, "write"))
        elif isinstance(node, ast.Subscript):
            consumed.add(id(node.value))
            target = ref(node.value)
            if target is not None:
                kind = "write" if isinstance(node.ctx,
                                             (ast.Store, ast.Del)) \
                    else "read"
                out.append(_Access(target, node.lineno,
                                   node.col_offset, kind))
        elif isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(getattr(node, "ctx", None), ast.Load) \
                and id(node) not in consumed:
            target = ref(node)
            if target is not None:
                out.append(_Access(target, node.lineno,
                                   node.col_offset, "read"))
    return out


def _callable_ref(graph: ProjectGraph, node: ast.AST, info: ModuleInfo,
                  local_assigns: Dict[str, ast.AST],
                  hops: int = 0) -> Optional[Tuple[ModuleInfo, str]]:
    """Resolve a callable argument to a project function, through
    ``functools.partial`` wrappers and simple local aliases."""
    if hops > _MAX_ALIAS_HOPS:
        return None
    if isinstance(node, ast.Call):
        canonical = _canonical(node.func, info)
        if canonical is not None and canonical.endswith("partial") \
                and node.args:
            return _callable_ref(graph, node.args[0], info, local_assigns,
                                 hops + 1)
        return None
    if isinstance(node, ast.Name) and node.id in local_assigns:
        return _callable_ref(graph, local_assigns[node.id], info,
                             local_assigns, hops + 1)
    if isinstance(node, (ast.Name, ast.Attribute)):
        return graph.resolve_call(node, info)
    return None


def _as_function(resolved: Tuple[ModuleInfo, str]) -> Optional[Tuple[str, str]]:
    """Normalize a resolved target to a concrete function key
    (classes map to ``Class.__init__``); None if no body to analyze."""
    target_info, qual = resolved
    if qual in target_info.classes:
        qual = f"{qual}.__init__"
    if qual not in target_info.functions:
        return None
    return (target_info.name, qual)


def _submission_seeds(info: ModuleInfo,
                      graph: ProjectGraph) -> List[Tuple[str, str, str]]:
    """(callee module, callee qualname, entry description) for every
    callable handed to a pool in ``info``'s functions."""
    seeds: List[Tuple[str, str, str]] = []
    for qual in sorted(info.functions):
        fn = info.functions[qual]
        local_assigns: Dict[str, ast.AST] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                local_assigns[node.targets[0].id] = node.value
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)):
                continue
            attr = call.func.attr
            candidates: List[ast.AST] = []
            if attr in EXECUTOR_METHODS:
                candidates = list(call.args[:2])
                candidates += [kw.value for kw in call.keywords
                               if kw.arg in EXECUTOR_KEYWORDS]
            elif attr in POOL_METHODS:
                candidates = list(call.args[:1])
                candidates += [kw.value for kw in call.keywords
                               if kw.arg == "func"]
            elif attr in POOL_METHODS_GUARDED:
                receiver = dotted_name(call.func.value) or ""
                if "pool" in receiver.lower() \
                        or "executor" in receiver.lower():
                    candidates = list(call.args[:1])
            if not candidates:
                continue
            entry = f"{info.name}.{qual}"
            for candidate in candidates:
                resolved = _callable_ref(graph, candidate, info,
                                         local_assigns)
                if resolved is None:
                    continue
                key = _as_function(resolved)
                if key is not None:
                    seeds.append((key[0], key[1], entry))
    return seeds


def _call_edges(info: ModuleInfo,
                graph: ProjectGraph) -> Dict[str, List[Tuple[str, str]]]:
    """qualname -> resolved project callees, for the worker closure."""
    out: Dict[str, List[Tuple[str, str]]] = {}
    for qual in sorted(info.functions):
        fn = info.functions[qual]
        edges: Set[Tuple[str, str]] = set()
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            resolved = graph.resolve_call(call.func, info)
            if resolved is None:
                continue
            key = _as_function(resolved)
            if key is not None:
                edges.add(key)
        if edges:
            out[qual] = sorted(edges)
    return out


def summarize_module(info: ModuleInfo, graph: ProjectGraph) -> _Summary:
    """The RPR009 fact summary of one parsed module.

    Everything here depends only on ``info``'s own source plus symbol
    resolution through the modules it imports.
    """
    known = graph.known_modules
    accesses: Dict[str, List[_Access]] = {}
    for qual in sorted(info.functions):
        found = _scan_function(info, info.functions[qual], known)
        if found:
            accesses[qual] = found
    return _Summary(mutables=sorted(_mutable_globals(info, graph)),
                    accesses=accesses, calls=_call_edges(info, graph),
                    seeds=_submission_seeds(info, graph))


# ---------------------------------------------------------------------------
# stage 2 — global analysis over the full summary map


class _ShareAnalysis:
    """Worker closure, runtime-write facts, and verdicts — a pure
    function of the per-module summary map."""

    def __init__(self, summaries: Dict[str, _Summary]):
        modules = sorted(summaries)
        #: (module, name) of every tracked mutable global.
        self.mutables: Set[_Global] = {
            _Global(module, name) for module in modules
            if module not in EXEMPT_MODULES
            for name in summaries[module].mutables}
        #: function key -> accesses of tracked globals inside it.
        self.accesses: Dict[Tuple[str, str], List[_Access]] = {}
        #: globals written at runtime (from any project function).
        self.runtime_written: Set[_Global] = set()
        for module in modules:
            by_function = summaries[module].accesses
            for qual in sorted(by_function):
                found = [a for a in by_function[qual]
                         if a.kind == "rebind" or a.target in self.mutables]
                self.runtime_written.update(
                    a.target for a in found if a.kind in ("write", "rebind"))
                if found:
                    self.accesses[(module, qual)] = found
        #: worker-callable closure: function key -> entry description.
        self.worker_entry: Dict[Tuple[str, str], str] = {}
        calls = {(module, qual): edges for module in modules
                 for qual, edges in summaries[module].calls.items()}
        frontier = sorted((seed for module in modules
                           for seed in summaries[module].seeds),
                          reverse=True)
        while frontier:
            module, qual, entry = frontier.pop()
            key = (module, qual)
            if key in self.worker_entry:
                continue
            self.worker_entry[key] = entry
            for callee in calls.get(key, ()):
                frontier.append((callee[0], callee[1], entry))
        #: module name -> hits, computed once per project.
        self.hits_by_module: Dict[str, List[Hit]] = self._hits()

    def _hits(self) -> Dict[str, List[Hit]]:
        """module name -> flow hits for worker-side global accesses."""
        out: Dict[str, List[Hit]] = {}
        for key, entry in sorted(self.worker_entry.items()):
            for access in self.accesses.get(key, []):
                if access.target.module in EXEMPT_MODULES:
                    # The scoped-registry implementation rebinds its own
                    # global by design; that IS the sanctioned pattern.
                    continue
                if access.kind == "read" \
                        and access.target not in self.runtime_written:
                    # Populated once at import time (a registry): every
                    # process sees the same contents; reads are safe.
                    continue
                module_name, qual = key
                verb = "reads" if access.kind == "read" else "writes"
                message = (
                    f"worker-callable {qual}() (reaches a process pool via "
                    f"{entry}()) {verb} module-level mutable "
                    f"'{access.target.name}' of {access.target.module}; "
                    f"parent and worker copies diverge across fork/spawn — "
                    f"use the scoped-registry pattern "
                    f"(repro.obs.registry.scoped_registry) or pass state "
                    f"through task payloads and returns")
                out.setdefault(module_name, []).append(
                    Hit(access.line, access.col + 1, message))
        for module_name in out:
            out[module_name] = sorted(set(out[module_name]))
        return out


def project_analysis(project: object) -> _ShareAnalysis:
    """The (memoized) global RPR009 analysis for one project run, over
    the fact summary of every parsed module."""
    graph: ProjectGraph = project.graph  # type: ignore[attr-defined]
    return project.memo(  # type: ignore[attr-defined, no-any-return]
        "rpr009.share", lambda: _ShareAnalysis(
            {name: summarize_module(info, graph)
             for name, info in sorted(graph.modules.items())}))


@rule
class ForkShareRule(Rule):
    id = "RPR009"
    summary = ("worker-callable code touches module-level mutable state; "
               "fork/spawn copies diverge — use scoped registries or "
               "explicit task payloads")
    requires_project = True

    def warm(self, project: object) -> None:
        project_analysis(project)

    def check(self, context: FileContext) -> Iterator[Violation]:
        project = context.project
        if project is None:
            return
        info = project.graph.module_for_path(context.path)  # type: ignore[attr-defined]
        if info is None:
            return
        analysis = project_analysis(project)
        for hit in analysis.hits_by_module.get(info.name, []):
            yield Violation(self.id, str(context.path), hit.line, hit.col,
                            hit.message)
