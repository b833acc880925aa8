"""A conservative intra- + inter-procedural taint engine for lint rules.

The flow rules (RPR008, RPR010) share one question with different
vocabularies: *can a value produced here reach a sink over there?*
:class:`FlowAnalysis` answers it over a :class:`~repro.lint.graph.ProjectGraph`:

* **intra-procedural** — inside each function, taint enters at *source*
  expressions (a ``time.time()`` call, a set display), propagates
  through assignments, loops, ``with`` targets, and arbitrary enclosing
  expressions (a tainted operand taints the expression), and is cleared
  by the spec's *sanitizers* (``sorted(...)`` for iteration-order
  taint);
* **inter-procedural** — a function whose return value is tainted gets
  a *summary*; a call to it (resolved through the project graph, across
  modules and re-exports) re-introduces the taint at the call site,
  with the summary chained into the description.  Summaries are
  computed to a fixpoint, so taint crosses any number of module hops.

Design choices, deliberately conservative in *both* directions:

* taint propagates through unknown calls with tainted arguments
  (``int(time.time())`` stays tainted) — over-approximate, because a
  missed nondeterminism source costs a corrupted golden;
* calls through arbitrary runtime objects (``obj.method()``) do not
  resolve and contribute no summary — under-approximate, because
  guessing method targets would bury real findings in noise.  The
  soundness trade-offs are spelled out in DESIGN.md §13.

Every violation is anchored at the line where the taint *enters the
reported file* (the source expression, or the call that imports a
tainted return value), never at the sink: distinct sources reaching one
sink stay distinct findings, and a ``# repro: noqa[...]`` on the sink
line cannot blanket-hide them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.lint.core import FileContext, Rule, Violation
from repro.lint.graph import ModuleInfo, ProjectGraph
from repro.lint.names import resolve_dotted

#: Convergence caps: statement passes inside one function body, and
#: summary passes over the whole project.  Taint states are small and
#: monotone in practice; the caps only bound pathological inputs.
_MAX_SUMMARY_PASSES = 12


class Taint(NamedTuple):
    """One taint fact: what it is and where it entered the current file."""

    desc: str
    line: int
    col: int

    @property
    def key(self) -> str:
        return f"{self.desc}@{self.line}:{self.col}"


class Hit(NamedTuple):
    """One flow violation: anchored at the taint's entry line."""

    line: int
    col: int
    message: str


class FlowSpec:
    """What a flow rule considers a source, a sanitizer, and a sink."""

    rule_id: str = ""
    #: Canonical callable names that *clear* taint (result is clean even
    #: with tainted arguments), e.g. ``sorted``.
    sanitizers: frozenset = frozenset()
    #: Canonical callable names whose result is order/value independent
    #: of argument taint (``len``, ``sum``): not tainted, not sanitizing
    #: anything else.
    neutral: frozenset = frozenset()

    def source_call(self, canonical: Optional[str],
                    call: ast.Call) -> Optional[str]:
        """Description if calling ``canonical`` introduces taint."""
        return None

    def source_expr(self, node: ast.expr,
                    canonical: Optional[str]) -> Optional[str]:
        """Description if the bare expression introduces taint
        (set displays, ``os.environ`` attribute reads, ...)."""
        return None

    def sink_call(self, canonical: Optional[str],
                  resolved: Optional[Tuple[ModuleInfo, str]],
                  call: ast.Call, module: ModuleInfo) -> Optional[str]:
        """Description if tainted *arguments* to this call violate."""
        return None

    def call_site_sink(self, resolved: Optional[Tuple[ModuleInfo, str]],
                       summary: Optional[str],
                       module: ModuleInfo) -> Optional[str]:
        """Description if merely *receiving* a tainted return value in
        ``module`` violates (e.g. any call importing nondeterminism
        into simulator scope)."""
        return None

    def advice(self) -> str:
        """One clause appended to every message: how to fix it."""
        return ""


TaintMap = Dict[str, Dict[str, Taint]]


class _FunctionTaint:
    """Intra-procedural pass over one function (or the module body)."""

    def __init__(self, analysis: "FlowAnalysis", module: ModuleInfo,
                 seed: Optional[Dict[str, Dict[str, Taint]]] = None):
        self.analysis = analysis
        self.module = module
        self.spec = analysis.spec
        #: variable name -> {taint key -> Taint}
        self.tainted: TaintMap = {k: dict(v) for k, v in (seed or {}).items()}
        self.returns: Dict[str, Taint] = {}

    # -- name helpers --------------------------------------------------------

    def _canonical(self, node: ast.AST) -> Optional[str]:
        return resolve_dotted(node, self.module.import_map)

    # -- expression taint ----------------------------------------------------

    def expr(self, node: ast.AST) -> Dict[str, Taint]:
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Name):
            out = dict(self.tainted.get(node.id, {}))
            desc = self.spec.source_expr(node, self._canonical(node))
            if desc is not None:
                self._add(out, desc, node)
            return out
        if isinstance(node, (ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            return {}
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            out = {}
            desc = self.spec.source_expr(node, None)
            if desc is not None:
                self._add(out, desc, node)
            out.update(self._comprehension(node))
            return out
        out: Dict[str, Taint] = {}
        if isinstance(node, ast.expr):
            desc = self.spec.source_expr(node, self._canonical(node))
            if desc is not None:
                self._add(out, desc, node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out.update(self.expr(child))
            elif isinstance(child, (ast.comprehension, ast.keyword)):
                out.update(self.expr(child))
        return out

    def _comprehension(self, node: ast.AST) -> Dict[str, Taint]:
        """Element taint of a comprehension, with its targets bound in a
        temporary scope so they shadow (not inherit) outer variables."""
        saved = self.tainted
        self.tainted = {k: dict(v) for k, v in saved.items()}
        try:
            for gen in node.generators:
                self.bind(gen.target, self.expr(gen.iter))
            if isinstance(node, ast.DictComp):
                out = dict(self.expr(node.key))
                out.update(self.expr(node.value))
                return out
            return self.expr(node.elt)
        finally:
            self.tainted = saved

    def _add(self, out: Dict[str, Taint], desc: str, node: ast.AST) -> None:
        taint = Taint(desc, getattr(node, "lineno", 1),
                      getattr(node, "col_offset", 0))
        out[taint.key] = taint

    def _call(self, call: ast.Call) -> Dict[str, Taint]:
        canonical = self._canonical(call.func)
        if canonical in self.spec.sanitizers:
            return {}
        if canonical in self.spec.neutral:
            return {}
        out: Dict[str, Taint] = {}
        desc = self.spec.source_call(canonical, call)
        if desc is not None:
            self._add(out, desc, call)
        resolved = self.analysis.graph.resolve_call(call.func, self.module)
        if resolved is not None:
            summary = self.analysis.summary(resolved)
            if summary is not None:
                self._add(out, f"call to {resolved[0].name}.{resolved[1]}() "
                               f"[{summary}]", call)
        out.update(self.arg_taints(call))
        if isinstance(call.func, ast.Attribute):
            # A method on a tainted object returns tainted data
            # (``tainted.copy()``, ``s.union(t)``).
            out.update(self.expr(call.func.value))
        return out

    def arg_taints(self, call: ast.Call) -> Dict[str, Taint]:
        out: Dict[str, Taint] = {}
        for arg in call.args:
            out.update(self.expr(arg))
        for kw in call.keywords:
            out.update(self.expr(kw.value))
        return out

    # -- statement execution -------------------------------------------------

    def bind(self, target: ast.AST, taints: Dict[str, Taint]) -> None:
        if isinstance(target, ast.Name):
            if taints:
                self.tainted[target.id] = dict(taints)
            else:
                self.tainted.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind(element, taints)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, taints)
        # Attribute / Subscript targets: not tracked (conservative miss).

    def exec_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            taints = self.expr(stmt.value)
            for target in stmt.targets:
                self.bind(target, taints)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.bind(stmt.target, self.expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taints = self.expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = dict(self.tainted.get(stmt.target.id, {}))
                merged.update(taints)
                if merged:
                    self.tainted[stmt.target.id] = merged
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Two body passes capture loop-carried taint.
            for _ in range(2):
                self.bind(stmt.target, self.expr(stmt.iter))
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            for _ in range(2):
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.expr(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, taints)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.returns.update(self.expr(stmt.value))
        elif isinstance(stmt, ast.Expr):
            pass  # pure uses are checked in the sink pass

    def run(self, body: List[ast.stmt]) -> None:
        self.exec_block(body)

    # -- sink pass -----------------------------------------------------------

    def sink_hits(self, body: List[ast.stmt]) -> Iterator[Hit]:
        seen = set()
        for call in _walk_calls(body):
            canonical = self._canonical(call.func)
            resolved = self.analysis.graph.resolve_call(call.func, self.module)
            sink = self.spec.sink_call(canonical, resolved, call, self.module)
            if sink is not None:
                for taint in sorted(self.arg_taints(call).values()):
                    key = (taint.key, "arg", call.lineno)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield Hit(taint.line, taint.col + 1,
                              f"{taint.desc} flows into {sink} "
                              f"(line {call.lineno}); {self.spec.advice()}")
            if resolved is not None:
                summary = self.analysis.summary(resolved)
                site = self.spec.call_site_sink(resolved, summary, self.module)
                if site is not None:
                    key = (f"{resolved[0].name}.{resolved[1]}", "site",
                           call.lineno)
                    if key not in seen:
                        seen.add(key)
                        yield Hit(call.lineno, call.col_offset + 1,
                                  f"call to {resolved[0].name}."
                                  f"{resolved[1]}() [{summary}] reaches "
                                  f"{site}; {self.spec.advice()}")


def _walk_calls(body: List[ast.stmt]) -> Iterator[ast.Call]:
    """Every Call in ``body``, not descending into nested def bodies."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _module_statements(info: ModuleInfo) -> List[ast.stmt]:
    """The module body minus def/class statements (the import-time code)."""
    return [s for s in info.tree.body
            if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]


class FlowRule(Rule):
    """Base for taint-driven rules: one :class:`FlowSpec`, one report
    per :class:`Hit` in the file under lint.  The project fixpoint is
    built on the rule's first call and memoized for the run."""

    spec: FlowSpec

    def check(self, context: FileContext) -> Iterator[Violation]:
        flow = context.project.flow(type(self).spec)
        for hit in flow.hits_for(context.module):
            yield Violation(self.id, str(context.path), hit.line, hit.col,
                            hit.message)


class FlowAnalysis:
    """Project-wide taint fixpoint for one :class:`FlowSpec`."""

    def __init__(self, graph: ProjectGraph, spec: FlowSpec):
        self.graph = graph
        self.spec = spec
        #: (module name, qualname) -> taint description of return value.
        self.summaries: Dict[Tuple[str, str], str] = {}
        #: module name -> {global var -> taints} from the module body.
        self.module_globals: Dict[str, TaintMap] = {}
        self._compute()

    def summary(self, resolved: Tuple[ModuleInfo, str]) -> Optional[str]:
        return self.summaries.get((resolved[0].name, resolved[1]))

    def _compute(self) -> None:
        functions = self.graph.project_functions()
        for _ in range(_MAX_SUMMARY_PASSES):
            changed = False
            for name in sorted(self.graph.modules):
                info = self.graph.modules[name]
                pass_ = _FunctionTaint(self, info)
                pass_.run(_module_statements(info))
                globals_taint = {k: v for k, v in pass_.tainted.items() if v}
                if globals_taint != self.module_globals.get(name, {}):
                    self.module_globals[name] = globals_taint
                    changed = True
            for info, qual, node in functions:
                body = getattr(node, "body", [])
                pass_ = _FunctionTaint(
                    self, info, seed=self.module_globals.get(info.name))
                pass_.run(body)
                if pass_.returns:
                    desc = sorted(pass_.returns.values())[0].desc
                    key = (info.name, qual)
                    if self.summaries.get(key) != desc:
                        self.summaries[key] = desc
                        changed = True
            if not changed:
                break

    def hits_for(self, info: ModuleInfo) -> List[Hit]:
        """All flow violations anchored in ``info``'s file."""
        hits: List[Hit] = []
        module_pass = _FunctionTaint(self, info)
        module_pass.run(_module_statements(info))
        hits.extend(module_pass.sink_hits(_module_statements(info)))
        for qual in sorted(info.functions):
            node = info.functions[qual]
            body = getattr(node, "body", [])
            pass_ = _FunctionTaint(
                self, info, seed=self.module_globals.get(info.name))
            pass_.run(body)
            hits.extend(pass_.sink_hits(body))
        unique = sorted(set(hits))
        return unique
