"""The ``repro.lint`` engine: rules, their registry, suppressions.

A *rule* is a class with an ``id`` (``RPR001`` ...), a one-line
``summary``, and a ``check(context)`` generator yielding
:class:`Violation` objects.  Rules register themselves with the
:func:`rule` decorator; the driver (:func:`repro.lint.project.lint_project`)
parses each file once and hands every selected rule the same
:class:`FileContext` (the parsed module and its comment map), so adding
a rule never adds a parse.

Suppressions are explicit and narrow: a ``# repro: noqa[RPR001]``
comment suppresses that rule on its line, ``# repro: noqa`` suppresses
every rule on its line.  Blanket file-level opt-outs are deliberately
not supported — the point of the pass is that invariants hold
everywhere, and each surviving ``noqa`` is greppable and reviewable.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Set, Type

if TYPE_CHECKING:
    from repro.lint.graph import ModuleInfo

#: ``# repro: noqa`` or ``# repro: noqa[RPR001,RPR005]`` (case-insensitive).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what is wrong."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "column": self.column, "message": self.message}


@dataclass
class FileContext:
    """Everything a rule may inspect about one file (parsed once)."""

    #: The parsed file: path, AST and import map.
    module: ModuleInfo
    #: line number -> set of suppressed rule ids ("*" means all rules).
    noqa: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.module.path

    @property
    def tree(self) -> ast.Module:
        return self.module.tree

    def in_directory(self, *names: str) -> bool:
        """Whether any path component matches one of ``names``."""
        return any(part in names for part in self.path.parts)

    def is_file(self, *basenames: str) -> bool:
        return self.path.name in basenames


class Rule:
    """Base class for lint rules; subclasses register via :func:`rule`."""

    id: str = ""
    summary: str = ""

    def check(self, context: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, context: FileContext, node: ast.AST,
                  message: str) -> Violation:
        """A :class:`Violation` anchored at ``node``'s source location."""
        return Violation(self.id, str(context.path),
                         getattr(node, "lineno", 1),
                         getattr(node, "col_offset", 0) + 1, message)


#: The global registry: rule id -> rule class, in registration order.
RULES: Dict[str, Type[Rule]] = {}

_RULE_ID_RE = re.compile(r"^RPR\d{3}$")


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: validate and register a :class:`Rule` subclass."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} must look like 'RPR001'")
    if not cls.summary:
        raise ValueError(f"rule {cls.id} needs a one-line summary")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def parse_noqa(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppressed rule ids (``{"*"}`` = all rules).

    Comments are found with :mod:`tokenize`, so a ``repro: noqa``-shaped
    string *literal* does not suppress anything.
    """
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if not match:
                continue
            rules = match.group("rules")
            ids = {r.strip().upper() for r in rules.split(",") if r.strip()} \
                if rules else {"*"}
            out.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:
        pass  # the AST parse will report the real syntax problem
    return out
