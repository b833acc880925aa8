"""Calibration parameters for the 2011 and 2019 workloads.

Every constant here traces back to a number in the paper (see DESIGN.md
section 5 for the full list).  The two era presets, :func:`era_2011` and
:func:`era_2019`, encode the longitudinal story: 3.5x job arrival
growth, the free-tier-to-batch-tier migration, heavier resource-hour
tails, more churn, comparable CPU/memory over-commit in 2019 versus
CPU-heavy over-commit in 2011, and Autopilot adoption (2019 only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.sim.priority import Tier

#: Autopilot modes, in the order of :attr:`EraParams.autopilot_probs`.
AUTOPILOT_MODES = ("none", "fully", "constrained")


@dataclass(frozen=True)
class SizeMixture:
    """The job resource-hours distribution: lognormal body + Pareto tail.

    With probability ``tail_prob`` a job is a "hog candidate" drawn from a
    bounded Pareto(alpha) on [tail_x_min, tail_x_max]; otherwise it is a
    "mouse" from a wide lognormal body.  The paper's Table 2 percentiles
    pin the body (median, 90%%ile) and the tail (alpha, the top-1%% load
    share); ``tail_x_max`` is scaled to the simulation horizon.
    """

    body_log_median: float
    body_log_sigma: float
    tail_prob: float
    tail_alpha: float
    tail_x_min: float = 1.0
    tail_x_max: float = 2000.0

    def __post_init__(self):
        if not 0 <= self.tail_prob < 1:
            raise ValueError(f"tail_prob must be in [0, 1), got {self.tail_prob}")
        if self.tail_alpha <= 0:
            raise ValueError(f"tail_alpha must be positive, got {self.tail_alpha}")
        if not 0 < self.tail_x_min < self.tail_x_max:
            raise ValueError("need 0 < tail_x_min < tail_x_max")

    def mean(self) -> float:
        """Closed-form mean of the mixture (used to solve arrival rates)."""
        body_mean = math.exp(math.log(self.body_log_median)
                             + self.body_log_sigma**2 / 2.0)
        a, lo, hi = self.tail_alpha, self.tail_x_min, self.tail_x_max
        if abs(a - 1.0) < 1e-9:
            tail_mean = lo * math.log(hi / lo) / (1.0 - lo / hi)
        else:
            norm = 1.0 - (lo / hi) ** a
            tail_mean = (a * lo**a / (1.0 - a)) * (hi ** (1.0 - a) - lo ** (1.0 - a)) / norm
        return (1.0 - self.tail_prob) * body_mean + self.tail_prob * tail_mean


@dataclass(frozen=True)
class TaskCountModel:
    """Tasks-per-job: a point mass at 1 plus a bounded-Pareto remainder.

    Calibrated to the paper's figure 11 percentiles (80%%ile of 25 tasks
    for best-effort batch; 95%%iles of 498/67/21/3 for beb/mid/free/prod).
    """

    single_task_prob: float
    alpha: float
    max_tasks: int

    def __post_init__(self):
        if not 0 <= self.single_task_prob <= 1:
            raise ValueError("single_task_prob must be in [0, 1]")
        if self.alpha <= 0 or self.max_tasks < 1:
            raise ValueError("alpha must be positive and max_tasks >= 1")


@dataclass(frozen=True)
class TierParams:
    """Per-tier workload composition."""

    #: Fraction of job arrivals in this tier.
    arrival_share: float
    #: Target average usage as a fraction of cell CPU capacity.
    target_cpu_usage: float
    #: Target average usage as a fraction of cell memory capacity.
    target_mem_usage: float
    #: Median fraction of the CPU limit a task actually uses
    #: (usage / allocation; paper section 4 quotes ~30% for prod CPU).
    cpu_usage_fraction: float
    #: Median fraction of the memory limit actually used.
    mem_usage_fraction: float
    tasks: TaskCountModel
    #: Raw priority values to draw from (era-appropriate).
    priorities: Tuple[int, ...]
    #: P(job ends in kill | no parent) etc.; must sum to 1.
    end_finish: float
    end_kill: float
    end_fail: float

    def __post_init__(self):
        total = self.end_finish + self.end_kill + self.end_fail
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"end probabilities must sum to 1, got {total}")
        if not self.priorities:
            raise ValueError("priorities must not be empty")


@dataclass(frozen=True)
class EraParams:
    """The complete workload description for one trace generation."""

    era: str
    #: Mean job submissions per hour per cell (pre-scaling).
    jobs_per_hour: float
    tiers: Dict[Tier, TierParams]
    sizes: SizeMixture
    #: Median of the per-job NMU-hours / NCU-hours ratio (figure 13).
    mem_cpu_ratio_median: float
    mem_cpu_ratio_sigma: float
    #: Diurnal amplitude of the arrival process.
    diurnal_amplitude: float
    #: P(a job has a parent job).
    parent_prob: float
    #: P(kill | has parent) — the section 5.2 87% statistic.
    kill_prob_with_parent: float
    #: Fraction of collections that are alloc sets (section 5.1: 2%).
    alloc_set_fraction: float
    #: Fraction of jobs that run inside an alloc set (section 5.1: 15%).
    jobs_in_alloc_fraction: float
    #: Of jobs in allocs, the fraction that are production tier (95%).
    alloc_jobs_prod_fraction: float
    #: Memory usage fraction for jobs inside allocs (73% vs 41% outside).
    mem_usage_fraction_in_alloc: float
    #: Autopilot mode probabilities (none, fully, constrained).
    autopilot_probs: Tuple[float, float, float]
    #: Task crash/restart hazard per running-hour (figure 9 churn).
    restart_rate_per_hour: float
    #: Infrastructure eviction hazard by tier, per running-hour.
    eviction_rate_per_hour: Dict[Tier, float] = field(default_factory=dict)
    #: P(a job carries a machine-platform placement constraint).
    constraint_prob: float = 0.0
    #: Number of distinct users submitting work.
    n_users: int = 120
    #: beb jobs go through the batch scheduler queue (2019 only).
    batch_queueing: bool = True

    def __post_init__(self):
        share = sum(t.arrival_share for t in self.tiers.values())
        if abs(share - 1.0) > 1e-6:
            raise ValueError(f"tier arrival shares must sum to 1, got {share}")
        probs = self.autopilot_probs
        if len(probs) != len(AUTOPILOT_MODES):
            raise ValueError(f"autopilot_probs needs one entry per mode "
                             f"{AUTOPILOT_MODES}, got {len(probs)}")
        if not all(math.isfinite(p) and p >= 0 for p in probs):
            raise ValueError(
                f"autopilot_probs must be finite and >= 0, got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("autopilot_probs must sum to 1")


def era_2011() -> EraParams:
    """The 2011 single-cell workload (Table 1 / section 3 era)."""
    tiers = {
        Tier.FREE: TierParams(
            arrival_share=0.35, target_cpu_usage=0.12, target_mem_usage=0.10,
            cpu_usage_fraction=0.45, mem_usage_fraction=0.50,
            tasks=TaskCountModel(0.70, 0.60, 100),
            priorities=(0, 1),
            end_finish=0.40, end_kill=0.42, end_fail=0.18,
        ),
        Tier.BEB: TierParams(
            arrival_share=0.45, target_cpu_usage=0.10, target_mem_usage=0.08,
            cpu_usage_fraction=0.40, mem_usage_fraction=0.50,
            tasks=TaskCountModel(0.50, 0.45, 200),
            priorities=(2, 4, 6, 8),
            end_finish=0.42, end_kill=0.40, end_fail=0.18,
        ),
        Tier.PROD: TierParams(
            arrival_share=0.20, target_cpu_usage=0.25, target_mem_usage=0.24,
            cpu_usage_fraction=0.35, mem_usage_fraction=0.55,
            tasks=TaskCountModel(0.75, 2.30, 50),
            priorities=(9, 10, 11),
            end_finish=0.50, end_kill=0.40, end_fail=0.10,
        ),
    }
    return EraParams(
        era="2011",
        jobs_per_hour=964.0,
        tiers=tiers,
        sizes=SizeMixture(
            body_log_median=1.5e-4, body_log_sigma=4.1,
            tail_prob=0.025, tail_alpha=0.77, tail_x_max=1500.0,
        ),
        mem_cpu_ratio_median=1.0, mem_cpu_ratio_sigma=0.5,
        diurnal_amplitude=0.30,
        parent_prob=0.08,
        kill_prob_with_parent=0.80,
        alloc_set_fraction=0.0,          # alloc data was elided from the 2011 trace
        jobs_in_alloc_fraction=0.0,
        alloc_jobs_prod_fraction=0.0,
        mem_usage_fraction_in_alloc=0.0,
        autopilot_probs=(1.0, 0.0, 0.0),  # no Autopilot in 2011
        restart_rate_per_hour=0.12,
        eviction_rate_per_hour={
            Tier.FREE: 0.0018, Tier.BEB: 0.0012, Tier.MID: 0.0,
            Tier.PROD: 0.00005, Tier.MONITORING: 0.00002,
        },
        constraint_prob=0.04,
        batch_queueing=False,
    )


def era_2019() -> EraParams:
    """The 2019 per-cell workload baseline (cells a-h modulate this)."""
    tiers = {
        Tier.FREE: TierParams(
            arrival_share=0.22, target_cpu_usage=0.05, target_mem_usage=0.04,
            cpu_usage_fraction=0.60, mem_usage_fraction=0.40,
            tasks=TaskCountModel(0.70, 0.60, 100),
            priorities=(0, 25, 99),
            end_finish=0.40, end_kill=0.42, end_fail=0.18,
        ),
        Tier.BEB: TierParams(
            arrival_share=0.38, target_cpu_usage=0.25, target_mem_usage=0.24,
            cpu_usage_fraction=0.55, mem_usage_fraction=0.45,
            tasks=TaskCountModel(0.45, 0.30, 500),
            priorities=(110, 112, 115),
            end_finish=0.45, end_kill=0.38, end_fail=0.17,
        ),
        Tier.MID: TierParams(
            arrival_share=0.10, target_cpu_usage=0.07, target_mem_usage=0.06,
            cpu_usage_fraction=0.75, mem_usage_fraction=0.70,
            tasks=TaskCountModel(0.55, 0.52, 200),
            priorities=(116, 117, 119),
            end_finish=0.48, end_kill=0.37, end_fail=0.15,
        ),
        Tier.PROD: TierParams(
            arrival_share=0.30, target_cpu_usage=0.23, target_mem_usage=0.32,
            cpu_usage_fraction=0.30, mem_usage_fraction=0.60,
            tasks=TaskCountModel(0.75, 2.30, 50),
            priorities=(120, 200, 359, 360, 450),
            end_finish=0.52, end_kill=0.39, end_fail=0.09,
        ),
    }
    return EraParams(
        era="2019",
        jobs_per_hour=3360.0,
        tiers=tiers,
        sizes=SizeMixture(
            body_log_median=5.0e-5, body_log_sigma=3.6,
            tail_prob=0.012, tail_alpha=0.69, tail_x_max=2500.0,
        ),
        mem_cpu_ratio_median=0.60, mem_cpu_ratio_sigma=0.5,
        diurnal_amplitude=0.25,
        parent_prob=0.12,
        kill_prob_with_parent=0.87,
        alloc_set_fraction=0.02,
        jobs_in_alloc_fraction=0.15,
        alloc_jobs_prod_fraction=0.95,
        mem_usage_fraction_in_alloc=0.73,
        autopilot_probs=(0.75, 0.15, 0.10),
        restart_rate_per_hour=0.62,
        eviction_rate_per_hour={
            Tier.FREE: 0.0012, Tier.BEB: 0.0008, Tier.MID: 0.0005,
            Tier.PROD: 0.00002, Tier.MONITORING: 0.00001,
        },
        constraint_prob=0.08,
        batch_queueing=True,
    )
