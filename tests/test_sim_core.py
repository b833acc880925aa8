"""Unit tests for simulator primitives: resources, tiers, machines."""

import pytest

from repro.sim import (
    Machine,
    Resources,
    Tier,
    priority_for_tier_2011,
    priority_for_tier_2019,
    tier_of_priority_2011,
    tier_of_priority_2019,
)
from repro.sim.entities import Collection, CollectionType, Instance
from repro.sim.priority import merge_monitoring
from repro.util.errors import SimulationError


class TestResources:
    def test_add_sub(self):
        a = Resources(1.0, 2.0) + Resources(0.5, 0.5)
        assert (a.cpu, a.mem) == (1.5, 2.5)
        b = a - Resources(1.5, 2.5)
        assert b.is_zero()

    def test_sub_clamps_tiny_negative(self):
        out = Resources(1.0, 1.0) - Resources(1.0 + 1e-15, 1.0)
        assert out.cpu == 0.0

    def test_scalar_multiply(self):
        assert (Resources(1.0, 2.0) * 2).mem == 4.0
        assert (3 * Resources(1.0, 2.0)).cpu == 3.0

    def test_fits_in_both_dimensions(self):
        assert Resources(0.5, 0.5).fits_in(Resources(0.5, 0.5))
        assert not Resources(0.6, 0.1).fits_in(Resources(0.5, 0.5))
        assert not Resources(0.1, 0.6).fits_in(Resources(0.5, 0.5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Resources(-1.0, 0.0)


class TestTiers:
    @pytest.mark.parametrize("priority,tier", [
        (0, Tier.FREE), (99, Tier.FREE),
        (110, Tier.BEB), (115, Tier.BEB),
        (116, Tier.MID), (119, Tier.MID),
        (120, Tier.PROD), (359, Tier.PROD),
        (360, Tier.MONITORING), (450, Tier.MONITORING),
    ])
    def test_2019_bands(self, priority, tier):
        assert tier_of_priority_2019(priority) is tier

    @pytest.mark.parametrize("band,tier", [
        (0, Tier.FREE), (1, Tier.FREE),
        (2, Tier.BEB), (8, Tier.BEB),
        (9, Tier.PROD), (10, Tier.PROD),
        (11, Tier.MONITORING),
    ])
    def test_2011_bands(self, band, tier):
        assert tier_of_priority_2011(band) is tier

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tier_of_priority_2019(451)
        with pytest.raises(ValueError):
            tier_of_priority_2011(12)

    def test_rank_ordering(self):
        assert (Tier.FREE.rank < Tier.BEB.rank < Tier.MID.rank
                < Tier.PROD.rank < Tier.MONITORING.rank)

    def test_representative_priorities_round_trip(self):
        for tier in (Tier.FREE, Tier.BEB, Tier.MID, Tier.PROD, Tier.MONITORING):
            assert tier_of_priority_2019(priority_for_tier_2019(tier)) is tier
        for tier in (Tier.FREE, Tier.BEB, Tier.PROD, Tier.MONITORING):
            assert tier_of_priority_2011(priority_for_tier_2011(tier)) is tier

    def test_merge_monitoring(self):
        assert merge_monitoring(Tier.MONITORING) is Tier.PROD
        assert merge_monitoring(Tier.BEB) is Tier.BEB

    def test_label(self):
        assert Tier.BEB.label == "beb tier"


def _collection(tier=Tier.PROD, cid=1):
    return Collection(
        collection_id=cid, collection_type=CollectionType.JOB,
        priority=200, tier=tier, user="u", submit_time=0.0,
    )


def _instance(collection, index=0, cpu=0.1, mem=0.1):
    inst = Instance(collection=collection, index=index,
                    request=Resources(cpu, mem))
    collection.instances.append(inst)
    return inst


class TestMachine:
    def test_place_updates_allocation(self):
        m = Machine(0, Resources(1.0, 1.0))
        inst = _instance(_collection())
        m.place(inst)
        assert m.allocated.cpu == pytest.approx(0.1)
        assert inst in m.instances

    def test_double_place_rejected(self):
        m = Machine(0, Resources(1.0, 1.0))
        inst = _instance(_collection())
        m.place(inst)
        with pytest.raises(SimulationError):
            m.place(inst)

    def test_remove_returns_allocation(self):
        m = Machine(0, Resources(1.0, 1.0))
        inst = _instance(_collection())
        m.place(inst)
        m.remove(inst)
        assert m.allocated.is_zero()

    def test_remove_absent_rejected(self):
        m = Machine(0, Resources(1.0, 1.0))
        with pytest.raises(SimulationError):
            m.remove(_instance(_collection()))

    def test_preemptible_below_rank_and_order(self):
        m = Machine(0, Resources(2.0, 2.0))
        free = _instance(_collection(Tier.FREE, 1), cpu=0.1, mem=0.1)
        beb_small = _instance(_collection(Tier.BEB, 2), cpu=0.1, mem=0.1)
        beb_big = _instance(_collection(Tier.BEB, 3), cpu=0.4, mem=0.4)
        prod = _instance(_collection(Tier.PROD, 4), cpu=0.1, mem=0.1)
        for inst in (free, beb_small, beb_big, prod):
            m.place(inst)
        victims = m.preemptible_below(Tier.PROD.rank)
        assert prod not in victims
        assert victims[0] is free            # lowest tier first
        assert victims[1] is beb_big         # then biggest within tier
