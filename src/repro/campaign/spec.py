"""Declarative campaign specs: a JSON grid expanded into evaluation points.

A campaign spec is one JSON object::

    {
      "campaign": "overcommit-ab",
      "description": "A/B CPU/memory over-commit on cell d",
      "base": {"cells": ["d"], "machines": 16, "hours": 4.0},
      "grid": {"overcommit_cpu": [1.2, 1.9], "overcommit_mem": [1.1, 1.8]},
      "seeds": [0, 1]
    }

``base`` overrides the built-in defaults (:data:`DEFAULT_PARAMS`);
``grid`` maps parameter names to value lists whose cartesian product —
crossed with ``seeds`` — is the campaign's point set.  Every point
carries fully resolved parameters, so the content-addressed key
(:mod:`repro.campaign.cache_key`) is independent of which side of the
base/grid split a value came from.

Expansion order is deterministic: grid axes iterate in sorted parameter
name order, values in their listed order, seeds innermost in listed
order.  Point ids number that sequence from zero and stay stable for a
given spec, which is what makes status/report output comparable across
runs and between serial and ``--workers N`` execution.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.campaign.cache_key import point_key
from repro.faults import FAULT_PROFILES
from repro.util.errors import ReproError
from repro.workload.archetypes import ARCHETYPE_MIXES
from repro.workload.scenarios import CELL_PROFILES_2019


class CampaignSpecError(ReproError):
    """A campaign spec that fails validation (bad key, type, or value)."""


#: Fully resolved defaults for every point parameter.  ``overcommit_*``
#: default to ``None`` — "use the era's scheduler preset".
DEFAULT_PARAMS: Dict[str, Union[str, int, float, List[str], None]] = {
    "era": "2019",
    "cells": ["d"],
    "machines": 24,
    "hours": 6.0,
    "scale": 0.012,
    "sample_period": 900.0,
    "overcommit_cpu": None,
    "overcommit_mem": None,
    "faults": None,
    "fault_rate": 1.0,
    "archetype_mix": None,
}

#: Parameters whose values must be positive numbers.
_POSITIVE = ("machines", "hours", "scale", "sample_period", "fault_rate")

#: Over-commit factors below 1 would *under*-commit below capacity.
_OVERCOMMIT_MIN = 1.0

#: Hard cap on expanded points: a fat-fingered grid should fail fast,
#: not quietly queue a month of simulation.
MAX_POINTS = 4096


def _validate_param(name: str, value) -> Union[str, int, float, List[str], None]:
    """Type/range-check one resolved parameter value; return it normalized."""
    if name not in DEFAULT_PARAMS:
        known = ", ".join(sorted(DEFAULT_PARAMS))
        raise CampaignSpecError(
            f"unknown campaign parameter {name!r} (known: {known})")
    if name == "era":
        if value not in ("2011", "2019"):
            raise CampaignSpecError(f"era must be '2011' or '2019', got {value!r}")
        return value
    if name == "cells":
        if isinstance(value, str):
            value = [c for c in value.split(",") if c]
        if not isinstance(value, list) or not value or \
                not all(isinstance(c, str) for c in value):
            raise CampaignSpecError(
                f"cells must be a non-empty list of cell names, got {value!r}")
        return value
    if name == "machines":
        # Integral floats are accepted (JSON tooling often emits 16.0);
        # they normalize to the same cache key as the int spelling.
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise CampaignSpecError(
                f"machines must be a positive integer, got {value!r}")
        return value
    if name in _POSITIVE:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or value <= 0:
            raise CampaignSpecError(
                f"{name} must be a positive number, got {value!r}")
        return float(value)
    if name == "faults":
        if value is None:
            return None
        if not isinstance(value, str) or value not in FAULT_PROFILES:
            known = ", ".join(sorted(FAULT_PROFILES))
            raise CampaignSpecError(
                f"faults must be a profile name ({known}) or null, "
                f"got {value!r}")
        return value
    if name == "archetype_mix":
        if value is None:
            return None
        if not isinstance(value, str) or value not in ARCHETYPE_MIXES:
            known = ", ".join(sorted(ARCHETYPE_MIXES))
            raise CampaignSpecError(
                f"archetype_mix must be a mix name ({known}) or null, "
                f"got {value!r}")
        return value
    # overcommit_cpu / overcommit_mem
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value < _OVERCOMMIT_MIN:
        raise CampaignSpecError(
            f"{name} must be a number >= {_OVERCOMMIT_MIN:g} (or null), "
            f"got {value!r}")
    return float(value)


def _validate_cells_for_era(params: dict) -> None:
    if params["era"] == "2011":
        if params["cells"] != ["2011"]:
            raise CampaignSpecError(
                "era 2011 has exactly one cell; use \"cells\": [\"2011\"], "
                f"got {params['cells']!r}")
        return
    unknown = [c for c in params["cells"] if c not in CELL_PROFILES_2019]
    if unknown:
        raise CampaignSpecError(
            f"unknown 2019 cells {unknown!r} "
            f"(known: {sorted(CELL_PROFILES_2019)})")


@dataclass(frozen=True)
class EvalPoint:
    """One expanded evaluation: resolved parameters + seed + cache key."""

    point_id: int
    params: Dict[str, object]
    grid_values: Dict[str, object]  # the point's grid assignment only
    seed: int
    key: str

    def describe(self) -> str:
        """Short human label: the grid assignment plus the seed."""
        parts = [f"{k}={v}" for k, v in self.grid_values.items()]
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: name, base params, grid axes, seed list."""

    name: str
    description: str
    base: Dict[str, object]
    grid: Dict[str, List[object]]
    seeds: Tuple[int, ...]
    source: str = "<spec>"
    points: Tuple[EvalPoint, ...] = field(default_factory=tuple)

    @property
    def grid_axes(self) -> List[str]:
        """Grid parameter names in expansion (sorted) order."""
        return sorted(self.grid)


def _expand_points(base: Dict[str, object], grid: Dict[str, List[object]],
                   seeds: Tuple[int, ...]) -> Tuple[EvalPoint, ...]:
    axes = sorted(grid)
    value_lists = [grid[axis] for axis in axes]
    points: List[EvalPoint] = []
    point_id = 0
    for combo in itertools.product(*value_lists) if axes else [()]:
        assignment = dict(zip(axes, combo))
        params = dict(base)
        params.update(assignment)
        _validate_cells_for_era(params)
        for seed in seeds:
            points.append(EvalPoint(
                point_id=point_id,
                params=params,
                grid_values=assignment,
                seed=seed,
                key=point_key(params, seed),
            ))
            point_id += 1
    return tuple(points)


def parse_spec(payload: dict, source: str = "<spec>") -> CampaignSpec:
    """Validate a decoded spec object and expand its point set."""
    if not isinstance(payload, dict):
        raise CampaignSpecError(f"{source}: spec must be a JSON object")
    unknown = set(payload) - {"campaign", "description", "base", "grid", "seeds"}
    if unknown:
        raise CampaignSpecError(
            f"{source}: unknown spec keys {sorted(unknown)} "
            "(expected campaign, description, base, grid, seeds)")
    name = payload.get("campaign")
    if not isinstance(name, str) or not name:
        raise CampaignSpecError(
            f"{source}: 'campaign' must be a non-empty string name")
    description = payload.get("description", "")
    if not isinstance(description, str):
        raise CampaignSpecError(f"{source}: 'description' must be a string")

    base_in = payload.get("base", {})
    if not isinstance(base_in, dict):
        raise CampaignSpecError(f"{source}: 'base' must be an object")
    base = dict(DEFAULT_PARAMS)
    for key, value in base_in.items():
        base[key] = _validate_param(key, value)

    grid_in = payload.get("grid", {})
    if not isinstance(grid_in, dict):
        raise CampaignSpecError(f"{source}: 'grid' must be an object")
    grid: Dict[str, List[object]] = {}
    for key, values in grid_in.items():
        if not isinstance(values, list) or not values:
            raise CampaignSpecError(
                f"{source}: grid axis {key!r} must be a non-empty list "
                f"of values, got {values!r}")
        grid[key] = [_validate_param(key, v) for v in values]

    seeds_in = payload.get("seeds", [0])
    if not isinstance(seeds_in, list) or not seeds_in or \
            any(isinstance(s, bool) or not isinstance(s, int) for s in seeds_in):
        raise CampaignSpecError(
            f"{source}: 'seeds' must be a non-empty list of integers")
    if len(set(seeds_in)) != len(seeds_in):
        raise CampaignSpecError(f"{source}: duplicate seeds {seeds_in!r}")
    seeds = tuple(seeds_in)

    n_points = len(seeds)
    for values in grid.values():
        n_points *= len(values)
    if n_points > MAX_POINTS:
        raise CampaignSpecError(
            f"{source}: grid expands to {n_points} points "
            f"(limit {MAX_POINTS}); shrink the grid or the seed list")

    points = _expand_points(base, grid, seeds)
    return CampaignSpec(name=name, description=description, base=base,
                        grid=grid, seeds=seeds, source=source, points=points)


def load_spec(path: Union[str, os.PathLike]) -> CampaignSpec:
    """Read and validate a campaign spec file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except ValueError as exc:
        raise CampaignSpecError(f"{path}: not valid JSON ({exc})") from exc
    return parse_spec(payload, source=str(path))
