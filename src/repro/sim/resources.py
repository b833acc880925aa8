"""Two-dimensional resource vectors (CPU in NCUs, memory in NMUs).

Both trace generations normalize resources so the largest machine is
1.0 in each dimension; all quantities here live on that scale.
"""

from __future__ import annotations

from dataclasses import dataclass

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class Resources:
    """An (NCU, NMU) pair; immutable, supports elementwise arithmetic.

    ``slots=True`` because millions of these exist per month-scale run
    and ``.cpu``/``.mem`` are among the hottest attribute reads in the
    simulator.
    """

    cpu: float
    mem: float

    def __post_init__(self):
        if self.cpu < -1e-9 or self.mem < -1e-9:
            raise ValueError(f"negative resources: cpu={self.cpu}, mem={self.mem}")

    # Arithmetic bypasses the validating constructor: __add__/__mul__
    # preserve non-negativity and __sub__ clamps at zero, so re-running
    # __post_init__ (plus the frozen-dataclass __setattr__ dance) on
    # every operation — millions per simulated month — buys nothing.
    def __add__(self, other: "Resources") -> "Resources":
        r = _new(Resources)
        _set(r, "cpu", self.cpu + other.cpu)
        _set(r, "mem", self.mem + other.mem)
        return r

    def __sub__(self, other: "Resources") -> "Resources":
        # Clamp tiny negative residue from float accumulation.
        r = _new(Resources)
        _set(r, "cpu", max(0.0, self.cpu - other.cpu))
        _set(r, "mem", max(0.0, self.mem - other.mem))
        return r

    def __mul__(self, k: float) -> "Resources":
        r = _new(Resources)
        _set(r, "cpu", self.cpu * k)
        _set(r, "mem", self.mem * k)
        return r

    __rmul__ = __mul__

    def fits_in(self, capacity: "Resources") -> bool:
        """True if this request fits inside ``capacity`` on both dimensions."""
        return self.cpu <= capacity.cpu + 1e-12 and self.mem <= capacity.mem + 1e-12

Resources.ZERO = Resources(0.0, 0.0)
