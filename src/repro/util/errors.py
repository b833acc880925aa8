"""Exception hierarchy for the repro library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as ``TypeError``; ``repro.cli.main``
turns one into a one-line error and exit code 2 (DESIGN.md §16).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table or trace did not match the expected schema.

    Raised by the columnar engine for mismatched column lengths or unknown
    column names, and by trace readers for malformed trace files.
    """


class QueryError(ReproError):
    """A store query that cannot be planned (a bad clause or aggregate)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state.

    This always indicates a bug in the simulator or an impossible
    configuration (for example, a task larger than every machine), never a
    legitimate workload outcome.
    """


class ValidationError(ReproError):
    """A trace invariant (see paper section 9) was violated."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        message = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(message)
