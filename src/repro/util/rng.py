"""Deterministic named random-number streams.

Each stochastic component of the library (arrival process, job sizing,
usage model, failure injection, ...) draws from its own named stream so
that adding randomness to one component never perturbs another.  Streams
are derived from a single root seed with ``numpy.random.SeedSequence``
spawning, which guarantees independence between streams.
"""

from __future__ import annotations

from typing import Dict, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class RngFactory:
    """Produce independent, reproducible ``numpy.random.Generator`` streams.

    >>> f = RngFactory(seed=7)
    >>> a = f.stream("arrivals")
    >>> b = f.stream("sizes")
    >>> a is f.stream("arrivals")   # streams are cached by name
    True

    Two factories built from the same seed hand out identical streams for
    identical names, which is the property every test in this repository
    leans on.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same underlying bit stream for a
        given root seed, regardless of the order in which streams are
        requested.
        """
        if name not in self._streams:
            # Hash the name into the seed sequence entropy so stream
            # identity depends only on (seed, name), not request order.
            entropy = [self._seed] + [ord(c) for c in name]
            self._streams[name] = np.random.default_rng(np.random.SeedSequence(entropy))
        return self._streams[name]

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory, e.g. one per simulated cell.

        The child's streams are independent of the parent's and of any
        sibling's, but fully determined by (root seed, child name).
        """
        entropy = self._seed * 1_000_003 + sum(ord(c) * 31 ** (i % 8) for i, c in enumerate(name))
        return RngFactory(seed=entropy % (2**63))

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed}, streams={sorted(self._streams)})"


# Scalar draws without numpy's per-call argument conversion and dispatch.
# Each consumes exactly the bits, and returns exactly the value, of the
# numpy call it replaces (the trace-bytes golden pins this).

def pick(rng: np.random.Generator, options: Sequence[T]) -> T:
    """``rng.choice(options)`` for one uniform pick: numpy draws
    ``integers(0, len(options))`` and indexes with it."""
    return options[int(rng.integers(0, len(options)))]


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """Scalar ``rng.uniform(low, high)``, which numpy computes as
    ``low + (high - low) * random()``."""
    return low + (high - low) * rng.random()
