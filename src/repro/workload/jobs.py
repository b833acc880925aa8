"""The workload generator: collections calibrated to the paper's statistics.

Given an :class:`~repro.workload.params.EraParams`, a cell capacity and a
horizon, :class:`WorkloadGenerator` produces the full list of
collections (alloc sets and jobs, with tasks, sizes, planned outcomes,
parent links and autopilot modes) to feed a :class:`~repro.sim.cell.CellSim`.

The central calibration identity: for each tier,

    arrival_rate * E[job NCU-hours] = target_usage * cell CPU capacity

so the per-tier size multiplier is solved from the mixture's closed-form
mean.  Multiplying a Pareto-tailed variable by a constant preserves its
tail exponent, so Table 2's alphas survive the scaling.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtri as _ndtri

from repro.sim.entities import Collection, CollectionType, EndReason, Instance, SchedulerKind
from repro.sim.priority import Tier
from repro.sim.resources import Resources
from repro.sim.usage import diurnal_factor
from repro.stats.distributions import (
    bounded_pareto_quantile,
    bounded_pareto_sample,
    stratified_uniforms,
)
from repro.util.rng import RngFactory, pick, uniform
from repro.util.timeutil import HOUR_SECONDS
from repro.workload.params import AUTOPILOT_MODES, EraParams

#: Planned job durations are clamped to at least this (seconds).
MIN_DURATION = 30.0
#: A single job's simultaneous *usage* footprint is capped at this
#: fraction of cell capacity, keeping scaled-down cells schedulable.
JOB_FOOTPRINT_CAP = 0.08
#: A single job's simultaneous *request* (limit) footprint cap.
REQUEST_FOOTPRINT_CAP = 0.16
#: Per-task requests never exceed this: tasks are much smaller than
#: machines (most 2019 machines are 0.25-0.5 on each dimension), and a
#: request bigger than a typical machine would be permanently unplaceable.
MAX_TASK_REQUEST = 0.35
#: Cap on a single task's *average usage* per dimension.
MAX_TASK_USAGE = 0.08


@dataclass
class _AllocSetInfo:
    collection: Collection
    instance_size: Resources


def build_simple_job(*, collection_id: int, tier: Tier, user: str,
                     submit_time: float, priority: int, n_tasks: int,
                     duration: float, cpu_usage: float, mem_usage: float,
                     cpu_fraction: float, mem_fraction: float,
                     planned_end: EndReason,
                     batch_queueing: bool) -> Collection:
    """Construct one job from an explicit shape (no calibration).

    The archetype generators (:mod:`repro.workload.archetypes`) and
    tests describe jobs directly — per-task usage, a limit fraction, a
    duration — instead of deriving them from the era's size mixture.
    This helper applies the same per-task caps and request backing-out
    as the calibrated path so hand-shaped jobs stay schedulable on
    scaled-down cells.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    cpu_usage = min(max(cpu_usage, 1e-4), MAX_TASK_USAGE)
    mem_usage = min(max(mem_usage, 1e-5), MAX_TASK_USAGE)
    cpu_fraction = min(max(cpu_fraction, 0.05), 0.95)
    mem_fraction = min(max(mem_fraction, 0.05), 0.95)
    cpu_request = min(max(cpu_usage / cpu_fraction, cpu_usage), MAX_TASK_REQUEST)
    mem_request = min(max(mem_usage / mem_fraction, mem_usage), MAX_TASK_REQUEST)
    scheduler = (SchedulerKind.BATCH
                 if tier is Tier.BEB and batch_queueing
                 else SchedulerKind.BORG)
    collection = Collection(
        collection_id=collection_id,
        collection_type=CollectionType.JOB,
        priority=priority,
        tier=tier,
        user=user,
        submit_time=submit_time,
        scheduler=scheduler,
        planned_duration=max(duration, MIN_DURATION),
        planned_end=planned_end,
        cpu_usage_fraction=min(cpu_usage / cpu_request, 0.95),
        mem_usage_fraction=min(mem_usage / mem_request, 0.95),
    )
    request = Resources(cpu_request, mem_request)
    for index in range(n_tasks):
        collection.instances.append(Instance(
            collection=collection, index=index, request=request,
        ))
    return collection


class WorkloadGenerator:
    """Generates one cell's workload."""

    def __init__(self, era: EraParams, capacity: Resources, horizon: float,
                 rng: RngFactory, arrival_scale: float = 1.0,
                 utc_offset_hours: float = 0.0,
                 tier_multipliers: Optional[Dict[Tier, Tuple[float, float]]] = None,
                 tier_fraction_multipliers: Optional[Dict[Tier, Tuple[float, float]]] = None,
                 platforms: Optional[Sequence[str]] = None,
                 id_offset: int = 0):
        if arrival_scale <= 0:
            raise ValueError(f"arrival_scale must be positive, got {arrival_scale}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.era = era
        self.capacity = capacity
        self.horizon = horizon
        self.arrival_scale = arrival_scale
        self.utc_offset_hours = utc_offset_hours
        self.tier_multipliers = tier_multipliers or {}
        #: Per-tier (cpu, mem) multipliers on the usage *fractions* —
        #: lowering a fraction raises the tier's allocation without
        #: changing its usage (how cell c over-allocates beb memory).
        self.tier_fraction_multipliers = tier_fraction_multipliers or {}
        #: (platform, fleet share) pairs for placement-constraint draws;
        #: constrained jobs prefer common platforms (a rare-platform
        #: constraint would mostly sit unplaceable).
        self.platforms = sorted(platforms) if platforms else []
        self._rng = rng.stream("workload")
        # The CDF ``rng.choice(AUTOPILOT_MODES, p=...)`` builds per call,
        # with numpy's own arithmetic; a uniform draw bisects it the way
        # choice's searchsorted does.
        cdf = np.cumsum(np.asarray(era.autopilot_probs, dtype=np.float64))
        cdf /= cdf[-1]
        self._autopilot_cdf = cdf.tolist()
        self._next_id = id_offset
        self._alloc_sets: List[_AllocSetInfo] = []
        #: (submit_time, est_end_time, collection) of recent parent candidates.
        self._controllers: List[Tuple[float, float, Collection]] = []
        #: Largest resource-hours integral a single job can realize: its
        #: footprint is capped and it cannot outlive the horizon.
        self.max_job_hours = (JOB_FOOTPRINT_CAP * capacity.cpu
                              * horizon / HOUR_SECONDS)

    # -------------------------------------------------------------- plumbing

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _mults(self, tier: Tier) -> Tuple[float, float]:
        return self.tier_multipliers.get(tier, (1.0, 1.0))

    def _tier_rate_per_hour(self, tier: Tier) -> float:
        return self.era.jobs_per_hour * self.arrival_scale * self.era.tiers[tier].arrival_share

    def _mem_multiplier(self, tier: Tier) -> float:
        """Median NMU-hours per NCU-hour for this tier (hits the mem target)."""
        params = self.era.tiers[tier]
        cpu_mult, mem_mult = self._mults(tier)
        cpu_side = params.target_cpu_usage * cpu_mult * self.capacity.cpu
        mem_side = params.target_mem_usage * mem_mult * self.capacity.mem
        if cpu_side <= 0:
            return self.era.mem_cpu_ratio_median
        return mem_side / cpu_side

    # -------------------------------------------------------------- arrivals

    def _arrival_times(self, rate_per_hour: float) -> np.ndarray:
        """Nonhomogeneous Poisson arrivals via thinning (diurnal cycle).

        Arrivals are generated from ``-horizon`` so the cell starts in
        steady state: pre-window jobs still alive at t=0 carry over their
        remaining work (see :meth:`_make_job`), exactly like the residual
        workload a real trace window opens onto.
        """
        if rate_per_hour <= 0:
            return np.empty(0)
        peak_rate = rate_per_hour * (1.0 + self.era.diurnal_amplitude) / HOUR_SECONDS
        times: List[float] = []
        t = -self.horizon + float(self._rng.exponential(1.0 / peak_rate))
        while t < self.horizon:
            factor = float(diurnal_factor(t, self.utc_offset_hours,
                                          self.era.diurnal_amplitude))
            accept_prob = (rate_per_hour / HOUR_SECONDS) * factor / peak_rate
            if self._rng.random() < accept_prob:
                times.append(t)
            t += float(self._rng.exponential(1.0 / peak_rate))
        return np.asarray(times)

    # ------------------------------------------------------------ sizing

    def _plan_tier(self, tier: Tier, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Assign a size (NCU-hours) and hog flag to every arrival slot.

        Sizes come from the era's body+tail mixture via stratified
        quantiles, scaled by one factor — solved on the planted sample —
        so the tier's *delivered-in-window* NCU-hours hit its target share
        of cell capacity.  Two variance-control rules make this exact
        rather than hopeful (a handful of Pareto hogs carry ~99% of the
        load, so iid placement would make realized tier load a coin flip):

        * Body jobs land on every slot (warm-up and window); by
          stationarity they deliver half their span total in-window.
        * Tail jobs ("hogs") land only on in-window slots early enough
          that the whole hog fits before the horizon at its footprint
          cap, so each delivers its entire size in-window.

        Scaling a Pareto variable preserves its exponent, so Table 2's
        alpha survives the normalization.

        Returns (sizes, is_hog) aligned with ``times``.
        """
        m = len(times)
        if m == 0:
            return np.empty(0), np.empty(0, dtype=bool)
        mixture = self.era.sizes
        window_idx = np.flatnonzero(times >= 0)
        n_tail = int(round(m * mixture.tail_prob))
        n_tail = min(max(n_tail, 1 if m >= 20 else 0), len(window_idx))
        n_body = m - n_tail

        tail = np.sort(bounded_pareto_quantile(
            stratified_uniforms(self._rng, n_tail),
            mixture.tail_alpha, mixture.tail_x_min, mixture.tail_x_max,
        ))[::-1] if n_tail else np.empty(0)
        z = _ndtri(np.clip(stratified_uniforms(self._rng, n_body), 1e-12, 1 - 1e-12))
        body = np.exp(math.log(mixture.body_log_median) + mixture.body_log_sigma * z)

        params = self.era.tiers[tier]
        cpu_mult, _ = self._mults(tier)
        horizon_hours = self.horizon / HOUR_SECONDS
        need_window = (params.target_cpu_usage * cpu_mult
                       * self.capacity.cpu * horizon_hours)
        cap = self.max_job_hours
        if need_window >= (0.5 * n_body + n_tail) * cap * 0.98:
            raise ValueError(
                f"tier {tier}: target load {need_window:.1f} NCU-hours cannot be "
                f"carried by {m} jobs capped at {cap:.1f} each; increase the "
                "arrival scale or the horizon"
            )
        lo, hi = 1e-9, 1e12
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            delivered = (0.5 * float(np.minimum(mid * body, cap).sum())
                         + float(np.minimum(mid * tail, cap).sum()))
            if delivered < need_window:
                lo = mid
            else:
                hi = mid
        c = math.sqrt(lo * hi)
        body_sizes = np.minimum(c * body, cap)
        tail_sizes = np.minimum(c * tail, cap)  # still descending

        # Place hogs: each needs `size / footprint_cap` hours before the
        # horizon, so draw its start uniformly over the feasible prefix.
        sizes_out = np.empty(m)
        is_hog = np.zeros(m, dtype=bool)
        footprint = JOB_FOOTPRINT_CAP * self.capacity.cpu
        available = [int(i) for i in window_idx]  # ascending in time
        for size in tail_sizes:  # largest first: most constrained choice
            required_h = 1.2 * size / footprint
            latest = max(0.0, self.horizon - required_h * HOUR_SECONDS)
            eligible = np.searchsorted([times[i] for i in available], latest,
                                       side="right")
            j = int(self._rng.integers(0, max(int(eligible), 1)))
            slot = available.pop(min(j, len(available) - 1))
            sizes_out[slot] = size
            is_hog[slot] = True
        self._rng.shuffle(body_sizes)
        free = np.flatnonzero(~is_hog)
        sizes_out[free] = body_sizes
        return sizes_out, is_hog

    def _draw_task_count(self, tier: Tier) -> int:
        model = self.era.tiers[tier].tasks
        if model.max_tasks == 1 or self._rng.random() < model.single_task_prob:
            return 1
        extra = bounded_pareto_sample(self._rng, model.alpha, 1.0,
                                      float(model.max_tasks), 1)[0]
        return min(model.max_tasks, 1 + int(extra))

    def _shape_job(self, tier: Tier, h_cpu: float, n_tasks: int,
                   in_alloc: bool, alloc_size: Optional[Resources],
                   forced_duration: Optional[float] = None) -> Tuple[
                       float, Resources, float, float]:
        """Decompose NCU-hours into (duration, per-task request, fractions).

        Returns (duration_seconds, request, cpu_fraction, mem_fraction).
        """
        params = self.era.tiers[tier]
        max_duration = self.horizon
        footprint_cap = JOB_FOOTPRINT_CAP * self.capacity.cpu
        if forced_duration is not None:
            # The duration is externally fixed (e.g. a child that will be
            # cascade-killed when its parent exits): back the usage rate
            # out of the resource-hours budget instead.
            duration_h = max(forced_duration, MIN_DURATION) / HOUR_SECONDS
            u0 = min(h_cpu / (n_tasks * duration_h), MAX_TASK_USAGE,
                     footprint_cap / n_tasks)
            u0 = max(u0, 1e-4)
        else:
            # Nominal per-task average CPU usage.
            u0 = float(self._rng.lognormal(math.log(0.015), 1.0))
            u0 = min(max(u0, 0.002), MAX_TASK_USAGE)
            u0 = min(u0, footprint_cap / n_tasks)

            duration_h = h_cpu / (n_tasks * u0)
            if duration_h * HOUR_SECONDS < MIN_DURATION:
                duration_h = MIN_DURATION / HOUR_SECONDS
                u0 = h_cpu / (n_tasks * duration_h)
            elif duration_h * HOUR_SECONDS > max_duration:
                duration_h = max_duration / HOUR_SECONDS
                u0 = min(h_cpu / (n_tasks * duration_h), MAX_TASK_USAGE,
                         footprint_cap / n_tasks)

        # Memory integral, correlated with CPU through the shared duration.
        ratio = self._mem_multiplier(tier) * float(self._rng.lognormal(
            0.0, self.era.mem_cpu_ratio_sigma
        )) / math.exp(self.era.mem_cpu_ratio_sigma**2 / 2.0)
        m0 = (h_cpu * ratio) / (n_tasks * duration_h)
        mem_footprint_cap = JOB_FOOTPRINT_CAP * self.capacity.mem
        m0 = min(max(m0, 1e-5), MAX_TASK_USAGE, mem_footprint_cap / n_tasks)

        # Requests (limits) back out from usage via the tier's usage fraction.
        f_cpu_mult, f_mem_mult = self.tier_fraction_multipliers.get(tier, (1.0, 1.0))
        if in_alloc:
            mem_fraction = self.era.mem_usage_fraction_in_alloc
        else:
            mem_fraction = params.mem_usage_fraction * f_mem_mult
        cpu_fraction = params.cpu_usage_fraction * f_cpu_mult
        cpu_fraction = min(max(
            cpu_fraction * self._rng.lognormal(0.0, 0.20), 0.05), 0.95)
        mem_fraction = min(max(
            mem_fraction * self._rng.lognormal(0.0, 0.15), 0.05), 0.95)

        cpu_request = min(u0 / cpu_fraction, MAX_TASK_REQUEST)
        mem_request = min(m0 / mem_fraction, MAX_TASK_REQUEST)
        if in_alloc and alloc_size is not None:
            cpu_request = min(cpu_request, 0.5 * alloc_size.cpu)
            mem_request = min(mem_request, 0.5 * alloc_size.mem)
        cpu_request = max(cpu_request, u0, 1e-4)
        mem_request = max(mem_request, m0, 1e-5)
        # Cap the job's total limit footprint so one hog cannot reserve a
        # third of the cell (or monopolize the batch-admission budget).
        cpu_request = min(cpu_request, REQUEST_FOOTPRINT_CAP * self.capacity.cpu / n_tasks)
        mem_request = min(mem_request, REQUEST_FOOTPRINT_CAP * self.capacity.mem / n_tasks)
        cpu_request = max(cpu_request, u0, 1e-4)
        mem_request = max(mem_request, m0, 1e-5)
        # Keep the realized fractions consistent with any caps applied.
        cpu_fraction = min(u0 / cpu_request, 0.95)
        mem_fraction = min(m0 / mem_request, 0.95)

        return duration_h * HOUR_SECONDS, Resources(cpu_request, mem_request), \
            cpu_fraction, mem_fraction

    # ------------------------------------------------------- terminations

    def _draw_end_reason(self, tier: Tier, has_parent: bool) -> EndReason:
        params = self.era.tiers[tier]
        if has_parent:
            # Children that outlive their parent are cascade-killed by the
            # simulator anyway; this draw covers children that end first.
            if self._rng.random() < self.era.kill_prob_with_parent * 0.6:
                return EndReason.KILL
        r = self._rng.random()
        if r < params.end_finish:
            return EndReason.FINISH
        if r < params.end_finish + params.end_kill:
            return EndReason.KILL
        return EndReason.FAIL

    # ------------------------------------------------------------ alloc sets

    def _make_alloc_sets(self, expected_jobs: int) -> None:
        """Create the alloc-set population (section 5.1's 2% of collections)."""
        frac = self.era.alloc_set_fraction
        if frac <= 0 or expected_jobs == 0:
            return
        n_sets = max(1, int(round(expected_jobs * frac / (1.0 - frac))))
        # Total reserved footprint sized so alloc sets are ~20% of CPU
        # allocations (section 5.1).
        total_cpu = 0.28 * self.capacity.cpu
        total_mem = 0.25 * self.capacity.mem
        for _ in range(n_sets):
            n_instances = int(self._rng.integers(4, 16))
            cpu_each = total_cpu / n_sets / n_instances
            mem_each = total_mem / n_sets / n_instances
            cpu_each = min(max(cpu_each * self._rng.lognormal(0.0, 0.3),
                               0.02), MAX_TASK_REQUEST)
            mem_each = min(max(mem_each * self._rng.lognormal(0.0, 0.3),
                               0.02), MAX_TASK_REQUEST)
            submit = uniform(self._rng, 0.0, 0.5 * self.horizon)
            collection = Collection(
                collection_id=self._new_id(),
                collection_type=CollectionType.ALLOC_SET,
                priority=pick(self._rng, (120, 200, 359)),
                tier=Tier.PROD,
                user=self._draw_user(),
                submit_time=submit,
                scheduler=SchedulerKind.BORG,
                planned_duration=2.0 * self.horizon,  # alive to the horizon
                planned_end=EndReason.KILL,
            )
            size = Resources(cpu_each, mem_each)
            for idx in range(n_instances):
                collection.instances.append(Instance(
                    collection=collection, index=idx, request=size,
                ))
            self._alloc_sets.append(_AllocSetInfo(collection, size))

    def _pick_alloc_set(self, t: float) -> Optional[_AllocSetInfo]:
        live = [a for a in self._alloc_sets if a.collection.submit_time < t]
        if not live:
            return None
        return live[int(self._rng.integers(0, len(live)))]

    # ---------------------------------------------------------------- users

    def _draw_user(self) -> str:
        # Zipf-ish user popularity: a few heavy submitters, a long tail.
        zipf = int(self._rng.zipf(1.6))
        return f"user_{min(zipf, self.era.n_users) - 1:04d}"

    # ------------------------------------------------------------- parents

    def _pick_parent(self, t: float, tier: Tier) -> Optional[Tuple[float, Collection]]:
        """A still-alive controller job to attach a child to."""
        self._controllers = [c for c in self._controllers if c[1] > t]
        candidates = [c for c in self._controllers if c[2].tier == tier] or self._controllers
        if not candidates:
            return None
        submit, est_end, parent = candidates[int(self._rng.integers(0, len(candidates)))]
        return est_end, parent

    # ------------------------------------------------------------- generate

    def generate(self) -> List[Collection]:
        """Produce the cell's full workload, sorted by submit time."""
        # Same GC deferral as CellSim.run: generation builds one big live
        # graph of collections and instances, so cyclic-GC passes during
        # it scan everything and reclaim nothing.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._generate()
        finally:
            if was_enabled:
                gc.enable()

    def _generate(self) -> List[Collection]:
        arrivals: List[Tuple[float, Tier, float, bool]] = []
        for tier in self.era.tiers:
            times = self._arrival_times(self._tier_rate_per_hour(tier))
            sizes, hog_flags = self._plan_tier(tier, times)
            for t, h, hog in zip(times, sizes, hog_flags):
                arrivals.append((float(t), tier, float(h), bool(hog)))
        arrivals.sort(key=lambda a: a[0])

        n_in_window = sum(1 for t, _, _, _ in arrivals if t >= 0)
        self._make_alloc_sets(n_in_window)
        collections: List[Collection] = [a.collection for a in self._alloc_sets]

        for t, tier, h_cpu, is_hog in arrivals:
            job = self._make_job(t, tier, h_cpu, is_hog)
            if job is not None:
                collections.append(job)

        collections.sort(key=lambda c: c.submit_time)
        return collections

    def _make_job(self, t: float, tier: Tier, h_cpu: float,
                  is_hog: bool = False) -> Optional[Collection]:
        """Create one job arriving at ``t`` (may be before the window).

        Pre-window jobs (t < 0) that would still be alive at t=0 enter the
        trace at the window open with their remaining duration — the warm
        start; ones that would have ended already return None.
        """
        params = self.era.tiers[tier]
        era = self.era

        # Alloc-set membership (mostly production jobs; section 5.1).
        # Hogs stay outside allocs: alloc instances are far smaller than a
        # hog's footprint.
        in_alloc = False
        alloc_info: Optional[_AllocSetInfo] = None
        if era.jobs_in_alloc_fraction > 0 and self._alloc_sets and not is_hog:
            prod_share = era.tiers[Tier.PROD].arrival_share
            if tier is Tier.PROD:
                p = era.jobs_in_alloc_fraction * era.alloc_jobs_prod_fraction / prod_share
            else:
                p = (era.jobs_in_alloc_fraction * (1.0 - era.alloc_jobs_prod_fraction)
                     / max(1e-9, 1.0 - prod_share))
            if self._rng.random() < min(p, 1.0):
                alloc_info = self._pick_alloc_set(t)
                in_alloc = alloc_info is not None

        # Parent-child dependencies (section 5.2).  Hogs are excluded:
        # their delivered load must not depend on a parent's lifetime.
        parent_est_end: Optional[float] = None
        parent: Optional[Collection] = None
        if not is_hog and self._rng.random() < era.parent_prob:
            picked = self._pick_parent(t, tier)
            if picked is not None:
                parent_est_end, parent = picked

        # The hours this job can actually run: hogs were planted early
        # enough to deliver their full size before the horizon.
        available_hours = (max(self.horizon - t, MIN_DURATION)
                           if is_hog else self.horizon) / HOUR_SECONDS

        n_tasks = self._draw_task_count(tier)
        # Hogs are wide: a job must have enough tasks to realize its
        # resource-hours in its available time at the per-task usage cap.
        min_tasks = int(math.ceil(h_cpu / (MAX_TASK_USAGE * available_hours)))
        n_tasks = max(n_tasks, min_tasks)

        # Children's effective lifetime is bounded by their parent: a child
        # that will be cascade-killed is *sized* for the time it actually
        # gets (so its resource-hours budget is delivered, not evaporated),
        # while its nominal planned duration stays longer so the cascade
        # kill is what ends it.
        forced_duration: Optional[float] = None
        planned_override: Optional[float] = None
        if parent is not None and parent_est_end is not None:
            remaining = max(60.0, parent_est_end - t)
            if self._rng.random() < 0.70:
                forced_duration = remaining
                planned_override = remaining * uniform(self._rng, 1.1, 3.0)
            else:
                forced_duration = max(MIN_DURATION,
                                      remaining * uniform(self._rng, 0.1, 0.9))
        elif is_hog:
            # Deliver the whole hog before the horizon (minus a placement
            # margin), at a usage rate backed out from its size.
            forced_duration = available_hours * HOUR_SECONDS * 0.70

        duration, request, cpu_frac, mem_frac = self._shape_job(
            tier, h_cpu, n_tasks, in_alloc,
            alloc_info.instance_size if alloc_info else None,
            forced_duration=forced_duration,
        )
        if planned_override is not None:
            duration = planned_override

        if t < 0:
            if t + duration <= 0:
                return None
            duration = t + duration
            t = uniform(self._rng, 0.0, 120.0)
        if parent is not None and t < parent.submit_time:
            # Warm-start remapping can reorder submits; a child never
            # predates its parent.
            t = parent.submit_time + 1.0

        constraint = ""
        if (self.platforms and not is_hog and not in_alloc
                and self._rng.random() < era.constraint_prob):
            constraint = str(self.platforms[int(self._rng.integers(
                0, len(self.platforms)))])

        autopilot = AUTOPILOT_MODES[
            bisect_right(self._autopilot_cdf, self._rng.random())]
        scheduler = (SchedulerKind.BATCH
                     if tier is Tier.BEB and era.batch_queueing
                     else SchedulerKind.BORG)

        collection = Collection(
            collection_id=self._new_id(),
            collection_type=CollectionType.JOB,
            priority=pick(self._rng, params.priorities),
            tier=tier,
            user=self._draw_user(),
            submit_time=t,
            scheduler=scheduler,
            parent_id=parent.collection_id if parent is not None else None,
            alloc_collection_id=(alloc_info.collection.collection_id
                                 if alloc_info else None),
            autopilot_mode=autopilot,
            constraint=constraint,
            planned_duration=duration,
            planned_end=self._draw_end_reason(tier, parent is not None),
            cpu_usage_fraction=cpu_frac,
            mem_usage_fraction=mem_frac,
        )
        if parent is not None:
            parent.child_ids.append(collection.collection_id)
        for idx in range(n_tasks):
            collection.instances.append(Instance(
                collection=collection, index=idx, request=request,
            ))

        # Long-enough jobs become controller candidates for later children.
        if duration >= 600.0 and parent is None:
            self._controllers.append((t, t + duration, collection))
            if len(self._controllers) > 500:
                self._controllers = self._controllers[-250:]
        return collection
