"""Shared utilities: deterministic RNG streams, time helpers, units, errors.

These are deliberately small and dependency-free (numpy only) so that every
other subpackage — the table engine, the simulator, the workload generators
and the analyses — can rely on them without import cycles.
"""

from repro.util.errors import ReproError, SchemaError, SimulationError, ValidationError
from repro.util.rng import RngFactory
from repro.util.timeutil import (
    DAY_SECONDS,
    HOUR_SECONDS,
    MINUTE_SECONDS,
    SAMPLE_PERIOD_SECONDS,
    hours,
)
from repro.util.units import normalize

__all__ = [
    "ReproError",
    "SchemaError",
    "SimulationError",
    "ValidationError",
    "RngFactory",
    "DAY_SECONDS",
    "HOUR_SECONDS",
    "MINUTE_SECONDS",
    "SAMPLE_PERIOD_SECONDS",
    "hours",
    "normalize",
]
