"""Unit tests for workload parameters, fleets, and the generator."""

import dataclasses
import math

import numpy as np
import pytest

from repro.sim.entities import CollectionType, SchedulerKind
from repro.sim.priority import Tier, tier_of_priority_2011, tier_of_priority_2019
from repro.sim.resources import Resources
from repro.util.rng import RngFactory
from repro.util.timeutil import HOUR_SECONDS
from repro.workload import (
    WorkloadGenerator,
    build_machines,
    era_2011,
    era_2019,
    fleet_2011,
    fleet_2019,
)
from repro.workload.params import SizeMixture, TaskCountModel, TierParams


class TestParams:
    def test_era_presets_validate(self):
        era_2011()
        era_2019()

    def test_2019_reflects_longitudinal_story(self):
        e11, e19 = era_2011(), era_2019()
        assert e19.jobs_per_hour / e11.jobs_per_hour == pytest.approx(3.49, abs=0.1)
        assert Tier.MID in e19.tiers and Tier.MID not in e11.tiers
        assert e19.alloc_set_fraction > 0 and e11.alloc_set_fraction == 0
        assert e19.batch_queueing and not e11.batch_queueing
        assert e19.autopilot_probs[0] < 1.0 and e11.autopilot_probs[0] == 1.0
        # beb grew, free shrank (section 4).
        assert (e19.tiers[Tier.BEB].target_cpu_usage
                > e11.tiers[Tier.BEB].target_cpu_usage)
        assert (e19.tiers[Tier.FREE].target_cpu_usage
                < e11.tiers[Tier.FREE].target_cpu_usage)

    def test_tail_alphas_match_paper(self):
        assert era_2019().sizes.tail_alpha == pytest.approx(0.69)
        assert era_2011().sizes.tail_alpha == pytest.approx(0.77)

    def test_size_mixture_mean_positive_and_tail_dominated(self):
        m = era_2019().sizes
        body_only = SizeMixture(m.body_log_median, m.body_log_sigma, 0.0,
                                m.tail_alpha, m.tail_x_min, m.tail_x_max)
        assert m.mean() > body_only.mean()

    def test_size_mixture_mean_matches_monte_carlo(self):
        m = SizeMixture(1e-4, 2.0, 0.05, 0.8, 1.0, 100.0)
        rng = np.random.default_rng(0)
        n = 400_000
        tail = rng.random(n) < 0.05
        from repro.stats.distributions import bounded_pareto_sample
        draws = np.where(
            tail,
            bounded_pareto_sample(rng, 0.8, 1.0, 100.0, n),
            rng.lognormal(math.log(1e-4), 2.0, n),
        )
        assert m.mean() == pytest.approx(float(draws.mean()), rel=0.03)

    def test_invalid_mixture(self):
        with pytest.raises(ValueError):
            SizeMixture(1e-4, 2.0, 1.5, 0.8)
        with pytest.raises(ValueError):
            SizeMixture(1e-4, 2.0, 0.1, -1.0)
        with pytest.raises(ValueError):
            SizeMixture(1e-4, 2.0, 0.1, 0.8, tail_x_min=10.0, tail_x_max=1.0)

    def test_invalid_task_model(self):
        with pytest.raises(ValueError):
            TaskCountModel(1.5, 0.5, 10)
        with pytest.raises(ValueError):
            TaskCountModel(0.5, 0.5, 0)

    def test_tier_end_probabilities_must_sum(self):
        with pytest.raises(ValueError):
            TierParams(arrival_share=1.0, target_cpu_usage=0.1,
                       target_mem_usage=0.1, cpu_usage_fraction=0.5,
                       mem_usage_fraction=0.5,
                       tasks=TaskCountModel(0.5, 0.5, 10), priorities=(1,),
                       end_finish=0.5, end_kill=0.4, end_fail=0.3)

    def test_tier_priorities_must_not_be_empty(self):
        with pytest.raises(ValueError, match="priorities"):
            dataclasses.replace(era_2019().tiers[Tier.BEB], priorities=())

    @pytest.mark.parametrize("probs", [
        (1.2, -0.1, -0.1),             # sums to 1, one entry negative
        (float("nan"), 0.5, 0.5),      # NaN slips past a sum check
        (0.5, 0.5),                    # one mode short
        (0.5, 0.25, 0.25, 0.0),        # one mode too many
    ])
    def test_autopilot_probs_validated(self, probs):
        # numpy's choice() used to reject these when a job drew its
        # mode; the generator now bisects a precomputed CDF, so the era
        # has to.
        with pytest.raises(ValueError, match="autopilot_probs"):
            dataclasses.replace(era_2019(), autopilot_probs=probs)


class TestFleet:
    def test_shape_counts_match_table1(self):
        assert len(fleet_2011()) == 10
        assert len(fleet_2019()) == 21
        assert len({s.platform for s in fleet_2011()}) == 3
        assert len({s.platform for s in fleet_2019()}) == 7

    def test_build_machines_count_and_ids(self):
        rng = np.random.default_rng(0)
        machines = build_machines(fleet_2019(), 50, rng, id_offset=100)
        assert len(machines) == 50
        assert machines[0].machine_id == 100
        assert machines[-1].machine_id == 149

    def test_weights_respected(self):
        rng = np.random.default_rng(1)
        machines = build_machines(fleet_2011(), 3000, rng)
        # The dominant 2011 shape (0.50, 0.50) is ~53% of the fleet.
        share = sum(1 for m in machines
                    if (m.capacity.cpu, m.capacity.mem) == (0.5, 0.5)) / 3000
        assert share == pytest.approx(0.53, abs=0.05)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            build_machines(fleet_2011(), 0, np.random.default_rng(0))

    def test_utc_offset_propagated(self):
        machines = build_machines(fleet_2019(), 3, np.random.default_rng(0),
                                  utc_offset_hours=8.0)
        assert all(m.utc_offset_hours == 8.0 for m in machines)


def make_generator(era=None, capacity=Resources(30.0, 30.0),
                   horizon=24 * HOUR_SECONDS, scale=0.01, seed=0):
    return WorkloadGenerator(
        era=era or era_2019(), capacity=capacity, horizon=horizon,
        rng=RngFactory(seed), arrival_scale=scale,
    )


class TestGenerator:
    def test_generates_sorted_collections(self):
        gen = make_generator()
        workload = gen.generate()
        assert len(workload) > 50
        times = [c.submit_time for c in workload]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_collection_ids_unique(self):
        workload = make_generator().generate()
        ids = [c.collection_id for c in workload]
        assert len(ids) == len(set(ids))

    def test_alloc_set_share_near_2pct(self):
        workload = make_generator(scale=0.05).generate()
        n_alloc = sum(1 for c in workload
                      if c.collection_type is CollectionType.ALLOC_SET)
        assert n_alloc / len(workload) == pytest.approx(0.02, abs=0.012)

    def test_no_alloc_sets_in_2011(self):
        workload = make_generator(era=era_2011()).generate()
        assert all(c.collection_type is CollectionType.JOB for c in workload)

    def test_beb_jobs_use_batch_scheduler_2019_only(self):
        for era, expected in ((era_2019(), SchedulerKind.BATCH),
                              (era_2011(), SchedulerKind.BORG)):
            workload = make_generator(era=era).generate()
            beb = [c for c in workload if c.tier is Tier.BEB
                   and c.collection_type is CollectionType.JOB]
            assert beb and all(c.scheduler is expected for c in beb)

    def test_priorities_consistent_with_tiers(self):
        workload = make_generator().generate()
        for c in workload:
            tier = tier_of_priority_2019(c.priority)
            tier = Tier.PROD if tier is Tier.MONITORING else tier
            expected = Tier.PROD if c.tier is Tier.MONITORING else c.tier
            assert tier is expected

    def test_2011_priorities_are_bands(self):
        workload = make_generator(era=era_2011()).generate()
        for c in workload:
            assert 0 <= c.priority <= 11
            tier = tier_of_priority_2011(c.priority)
            tier = Tier.PROD if tier is Tier.MONITORING else tier
            assert tier in (c.tier, Tier.PROD)

    def test_offered_load_matches_targets(self):
        gen = make_generator(scale=0.05, horizon=48 * HOUR_SECONDS)
        workload = gen.generate()
        horizon = 48 * HOUR_SECONDS
        delivered = {tier: 0.0 for tier in gen.era.tiers}
        for c in workload:
            if c.collection_type is CollectionType.ALLOC_SET:
                continue
            overlap = max(0.0, min(c.submit_time + c.planned_duration, horizon)
                          - c.submit_time)
            for inst in c.instances:
                delivered[c.tier] += (inst.request.cpu * c.cpu_usage_fraction
                                      * overlap / HOUR_SECONDS)
        for tier, params in gen.era.tiers.items():
            target = params.target_cpu_usage * gen.capacity.cpu * 48
            assert delivered[tier] == pytest.approx(target, rel=0.35), tier

    def test_parent_links_resolve(self):
        workload = make_generator(scale=0.05).generate()
        ids = {c.collection_id for c in workload}
        children = [c for c in workload if c.parent_id is not None]
        assert children, "expected some jobs with parents"
        assert all(c.parent_id in ids for c in children)

    def test_parents_submitted_before_children(self):
        workload = make_generator(scale=0.05).generate()
        submit = {c.collection_id: c.submit_time for c in workload}
        for c in workload:
            if c.parent_id is not None:
                assert submit[c.parent_id] <= c.submit_time

    def test_alloc_job_links_resolve(self):
        workload = make_generator(scale=0.05).generate()
        alloc_ids = {c.collection_id for c in workload
                     if c.collection_type is CollectionType.ALLOC_SET}
        in_alloc = [c for c in workload if c.alloc_collection_id is not None]
        assert in_alloc, "expected some jobs in allocs"
        assert all(c.alloc_collection_id in alloc_ids for c in in_alloc)
        prod_share = (sum(1 for c in in_alloc if c.tier is Tier.PROD)
                      / len(in_alloc))
        assert prod_share > 0.7

    def test_requests_at_least_usage(self):
        workload = make_generator().generate()
        for c in workload:
            for inst in c.instances:
                assert inst.request.cpu > 0 and inst.request.mem > 0
                assert c.cpu_usage_fraction <= 0.96
                assert c.mem_usage_fraction <= 0.96

    def test_durations_positive(self):
        workload = make_generator().generate()
        assert all(c.planned_duration > 0 for c in workload)

    def test_determinism(self):
        a = make_generator(seed=3).generate()
        b = make_generator(seed=3).generate()
        assert [(c.collection_id, c.submit_time, c.num_instances) for c in a] \
            == [(c.collection_id, c.submit_time, c.num_instances) for c in b]

    def test_infeasible_target_raises(self):
        # Tiny arrival scale: too few jobs to carry the target load.
        with pytest.raises(ValueError, match="increase the arrival scale"):
            WorkloadGenerator(era=era_2019(), capacity=Resources(30.0, 30.0),
                              horizon=24 * HOUR_SECONDS, rng=RngFactory(0),
                              arrival_scale=1e-5).generate()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_generator(scale=0.0)
        with pytest.raises(ValueError):
            make_generator(horizon=0.0)
