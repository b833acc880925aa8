"""RPR002 — determinism: no wall clocks or global RNG in the simulator.

The trace pipeline is only trustworthy if a simulation is a pure
function of its inputs: same scenario + same seed -> byte-identical
event stream.  Inside :mod:`repro.sim` and :mod:`repro.workload` that
means no wall-clock reads (``time.time``, ``datetime.now``) and no
global random state (``random.*``, legacy ``np.random.seed`` /
``np.random.rand`` ...); randomness flows exclusively through injected
``np.random.Generator`` streams (see :mod:`repro.util.rng`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import FileContext, Rule, Violation, rule
from repro.lint.names import resolve_dotted

#: Directories (package components) the rule polices.
SCOPED_DIRS = ("sim", "workload")

#: Canonical dotted names of wall-clock reads.
WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``numpy.random`` attributes that are *not* global mutable state:
#: generator/bit-generator types (fine in annotations and isinstance).
#: Everything else on ``numpy.random`` — including ``default_rng`` —
#: is banned here: simulation code must receive its Generator, never
#: mint one.
NP_RANDOM_ALLOWED = frozenset({
    "Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
    "Philox", "SFC64", "MT19937",
})


def _offense(canonical: Optional[str]) -> Optional[str]:
    """Why ``canonical`` is non-deterministic (None when it is fine)."""
    if canonical is None:
        return None
    if canonical in WALL_CLOCKS:
        return f"wall-clock read {canonical}()"
    if canonical == "random" or canonical.startswith("random."):
        return f"global-state RNG {canonical}"
    if canonical.startswith("numpy.random."):
        attr = canonical[len("numpy.random."):]
        if attr not in NP_RANDOM_ALLOWED:
            return f"legacy/global numpy RNG {canonical}"
    return None


@rule
class DeterminismRule(Rule):
    id = "RPR002"
    summary = ("non-deterministic call in sim/workload; use the injected "
               "np.random.Generator and trace timestamps")

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not context.in_directory(*SCOPED_DIRS):
            return
        imports = context.module.import_map
        reported = set()
        for node in ast.walk(context.tree):
            # Attribute chains: np.random.seed, time.time, random.randint.
            # Only the outermost chain is checked; ast.walk also visits the
            # inner Attribute nodes, whose shorter chains simply don't match.
            if isinstance(node, (ast.Attribute, ast.Name)):
                canonical = resolve_dotted(node, imports)
                # A bare Name only offends if an import bound it to a
                # banned callable (``from time import time``).
                if isinstance(node, ast.Name) and \
                        imports.canonical(node.id) is None:
                    continue
                why = _offense(canonical)
                if why is None:
                    continue
                key = (node.lineno, node.col_offset)
                if key in reported:
                    continue
                reported.add(key)
                yield self.violation(
                    context, node,
                    f"{why}: simulation determinism requires injected "
                    "np.random.Generator streams and simulated time only",
                )
