"""The built-in rule set.  Importing this package registers every rule.

Rule catalogue
--------------
RPR001  schema consistency — column strings must exist in the canonical
        schema of the table being read (repro/trace/schema.py).
RPR002  determinism — no wall clocks or global RNG inside repro.sim and
        repro.workload; only injected np.random.Generator streams.
RPR003  fork safety — callables handed to a process pool (fan_out,
        map_reduce, pool.imap, ...) must be importable by name from
        worker processes.
RPR004  exception hygiene — broad excepts must re-raise, log, or narrow.
RPR005  unit discipline — resource/time magnitudes go through the named
        constants in repro.util, never raw literals.
RPR006  obs discipline — span names handed to repro.obs.span/traced must
        be literal strings, so the span-tree structure stays a pure
        function of control flow.
RPR007  hot-loop guards — recorder/profiler calls inside repro.sim loops
        must sit behind an if-guard naming the handle, keeping opt-in
        telemetry off the per-event path of unrecorded runs.

Adding a rule: create a module here defining a :class:`repro.lint.Rule`
subclass with the next free ``RPR`` id, decorate it with
``@repro.lint.core.rule``, and import the module below.  The driver,
reporters, ``noqa`` handling, CLI, and CI pick it up automatically.
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    determinism,
    exception_hygiene,
    fork_safety,
    hot_loop_guards,
    obs_discipline,
    schema_consistency,
    unit_discipline,
)
