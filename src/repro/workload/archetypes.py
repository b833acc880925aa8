"""User archetypes: composable behavioral workload generators.

The per-user clustering literature on the Google traces ("Analysis and
Clustering of Workload in Google Cluster Trace based on Resource
Usage") finds a handful of recurring behavior classes.  This module
models four of them as *additive* generators layered on top of the
calibrated base workload:

* **hog** — a few users submitting a few wide, long, heavy jobs; the
  per-user face of the hogs that carry most of the load.
* **mouse** — many users, many tiny single-task jobs.
* **cron** — periodic submitters: the same small job on a fixed cadence
  with a per-user phase (the cron/pipeline framework signature).
* **bursty** — jobs arriving in tight clusters separated by silence.

Archetype users are named ``<kind>_<index>`` (``hog_0000``,
``cron_0003``, ...), so analyses can attribute usage to archetypes from
the trace alone — no side channel.

Determinism: all draws come from the single generator the scenario
passes in (its ``"archetypes"`` stream) and users are generated in a
fixed order (hogs, mice, cron, bursty; index ascending), so the output
is a pure function of ``(era, capacity, horizon, seed, mix)``.  With no
mix configured the scenario never creates this generator, so baseline
workloads are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.sim.entities import Collection, EndReason
from repro.sim.priority import Tier
from repro.sim.resources import Resources
from repro.util.rng import pick, uniform
from repro.util.timeutil import HOUR_SECONDS
from repro.workload.jobs import build_simple_job
from repro.workload.params import EraParams

#: Generation (and naming) order of the archetype kinds.
ARCHETYPE_KINDS = ("hog", "mouse", "cron", "bursty")


@dataclass(frozen=True)
class ArchetypeMix:
    """How many users of each archetype a scenario adds."""

    hogs: int = 0
    mice: int = 0
    cron: int = 0
    bursty: int = 0

    def __post_init__(self):
        for name in ("hogs", "mice", "cron", "bursty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def n_users(self) -> int:
        return self.hogs + self.mice + self.cron + self.bursty


#: Named presets — the vocabulary of ``archetype_mix=`` knobs, the
#: campaign grid axis, and the CLI flag.
ARCHETYPE_MIXES: Dict[str, ArchetypeMix] = {
    "mixed": ArchetypeMix(hogs=2, mice=16, cron=4, bursty=3),
    "hog_heavy": ArchetypeMix(hogs=5, mice=4),
    "mice_swarm": ArchetypeMix(mice=40),
    "cron_farm": ArchetypeMix(cron=10, mice=4),
    "bursty": ArchetypeMix(bursty=6, mice=4),
}


def resolve_archetype_mix(mix: Union[str, ArchetypeMix, None]
                          ) -> Optional[ArchetypeMix]:
    """Normalize a scenario/campaign ``archetype_mix`` knob."""
    if mix is None:
        return None
    if isinstance(mix, str):
        if mix not in ARCHETYPE_MIXES:
            known = ", ".join(sorted(ARCHETYPE_MIXES))
            raise ValueError(f"unknown archetype mix {mix!r} (known: {known})")
        return ARCHETYPE_MIXES[mix]
    if isinstance(mix, ArchetypeMix):
        return mix
    raise TypeError(f"archetype_mix must be None, a mix name, or "
                    f"ArchetypeMix, got {type(mix).__name__}")


class ArchetypeWorkload:
    """Generates the archetype users' jobs for one cell."""

    def __init__(self, era: EraParams, capacity: Resources, horizon: float,
                 rng: np.random.Generator, id_offset: int):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.era = era
        self.capacity = capacity
        self.horizon = horizon
        self._rng = rng
        self._next_id = id_offset

    # ------------------------------------------------------------- plumbing

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _tier(self, *preferred: Tier) -> Tier:
        """The first era-supported tier of ``preferred`` (BEB fallback)."""
        for tier in preferred:
            if tier in self.era.tiers:
                return tier
        return Tier.BEB

    def _priority(self, tier: Tier) -> int:
        return pick(self._rng, self.era.tiers[tier].priorities)

    def _end(self, fail_prob: float) -> EndReason:
        return (EndReason.FAIL if self._rng.random() < fail_prob
                else EndReason.FINISH)

    def _job(self, *, tier: Tier, user: str, submit_time: float,
             n_tasks: int, duration: float, cpu_usage: float,
             fail_prob: float) -> Collection:
        params = self.era.tiers[tier]
        return build_simple_job(
            collection_id=self._new_id(), tier=tier, user=user,
            submit_time=submit_time, priority=self._priority(tier),
            n_tasks=n_tasks, duration=duration,
            cpu_usage=cpu_usage,
            mem_usage=cpu_usage * self.era.mem_cpu_ratio_median,
            cpu_fraction=params.cpu_usage_fraction,
            mem_fraction=params.mem_usage_fraction,
            planned_end=self._end(fail_prob),
            batch_queueing=self.era.batch_queueing,
        )

    # ----------------------------------------------------------- archetypes

    def _hog_jobs(self, user: str) -> List[Collection]:
        """A few wide, long, heavy jobs."""
        tier = self._tier(Tier.BEB)
        out = []
        for _ in range(1 + int(self._rng.integers(0, 2))):
            out.append(self._job(
                tier=tier, user=user,
                submit_time=uniform(self._rng, 0.0, 0.5 * self.horizon),
                n_tasks=int(self._rng.integers(16, 48)),
                duration=uniform(self._rng, 0.3, 0.6) * self.horizon,
                cpu_usage=uniform(self._rng, 0.015, 0.04),
                fail_prob=0.05,
            ))
        return out

    def _mouse_jobs(self, user: str) -> List[Collection]:
        """Many tiny, short, single-task jobs."""
        tier = self._tier(Tier.FREE, Tier.BEB)
        out = []
        for _ in range(1 + int(self._rng.poisson(3.0))):
            out.append(self._job(
                tier=tier, user=user,
                submit_time=uniform(self._rng, 0.0, self.horizon),
                n_tasks=1,
                duration=uniform(self._rng, 60.0, 900.0),
                cpu_usage=uniform(self._rng, 0.002, 0.006),
                fail_prob=0.08,
            ))
        return out

    def _cron_jobs(self, user: str) -> List[Collection]:
        """The same small job on a fixed cadence with a per-user phase."""
        tier = self._tier(Tier.MID, Tier.BEB)
        period = pick(self._rng, (0.25, 0.5, 1.0)) * HOUR_SECONDS
        phase = uniform(self._rng, 0.0, period)
        duration = uniform(self._rng, 0.1, 0.4) * period
        n_tasks = int(self._rng.integers(1, 3))
        cpu_usage = uniform(self._rng, 0.003, 0.008)
        out = []
        t = phase
        while t < self.horizon:
            out.append(self._job(
                tier=tier, user=user, submit_time=t, n_tasks=n_tasks,
                duration=duration, cpu_usage=cpu_usage, fail_prob=0.05,
            ))
            t += period
        return out

    def _bursty_jobs(self, user: str) -> List[Collection]:
        """Clusters of near-simultaneous jobs separated by silence."""
        tier = self._tier(Tier.BEB)
        n_bursts = 1 + int(self._rng.poisson(
            self.horizon / (4.0 * HOUR_SECONDS)))
        out = []
        for _ in range(n_bursts):
            burst_at = uniform(self._rng, 0.0, self.horizon)
            for _ in range(4 + int(self._rng.integers(0, 8))):
                out.append(self._job(
                    tier=tier, user=user,
                    submit_time=burst_at + uniform(self._rng, 0.0, 120.0),
                    n_tasks=int(self._rng.integers(1, 3)),
                    duration=uniform(self._rng, 120.0, 1200.0),
                    cpu_usage=uniform(self._rng, 0.003, 0.008),
                    fail_prob=0.25,
                ))
        return out

    # ------------------------------------------------------------- generate

    def generate(self, mix: ArchetypeMix) -> List[Collection]:
        """All archetype jobs for ``mix``, sorted by submit time."""
        generators = (("hog", mix.hogs, self._hog_jobs),
                      ("mouse", mix.mice, self._mouse_jobs),
                      ("cron", mix.cron, self._cron_jobs),
                      ("bursty", mix.bursty, self._bursty_jobs))
        out: List[Collection] = []
        for kind, count, make in generators:
            for index in range(count):
                out.extend(make(f"{kind}_{index:04d}"))
        out = [c for c in out if c.submit_time < self.horizon]
        out.sort(key=lambda c: c.submit_time)
        return out


def archetype_of_user(user: str) -> Optional[str]:
    """The archetype kind encoded in a user name, or None.

    ``hog_0002`` → ``"hog"``; the base workload's ``user_0017`` → None.
    """
    kind = user.split("_", 1)[0]
    return kind if kind in ARCHETYPE_KINDS else None
