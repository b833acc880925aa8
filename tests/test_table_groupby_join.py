"""Unit tests for the group-by kernel: ``segments`` and ``group_reduce``."""

import numpy as np
import pytest

from repro.analysis.common import group_reduce
from repro.table import Table, segments


@pytest.fixture
def usage():
    return Table({
        "tier": ["prod", "beb", "beb", "prod", "free"],
        "cell": ["a", "a", "b", "b", "a"],
        "cpu": [0.5, 0.1, 0.2, 0.3, 0.05],
    })


class TestGroupBy:
    def test_sum_by_single_key(self, usage):
        tiers, total = group_reduce(usage["tier"].values, usage["cpu"].values)
        assert tiers.tolist() == ["beb", "free", "prod"]
        assert total.tolist() == pytest.approx([0.3, 0.05, 0.8])

    def test_multiple_aggregations(self, usage):
        order, starts = segments(usage["cell"].values)
        cpu = usage["cpu"].values[order]
        assert usage["cell"].values[order[starts]].tolist() == ["a", "b"]
        assert np.diff(starts, append=len(order)).tolist() == [3, 2]
        assert np.add.reduceat(cpu, starts).tolist() == pytest.approx([0.65, 0.5])
        assert np.maximum.reduceat(cpu, starts).tolist() == [0.5, 0.3]

    def test_custom_callable(self, usage):
        def spread(values, starts):
            return (np.maximum.reduceat(values, starts)
                    - np.minimum.reduceat(values, starts))

        cells, out = group_reduce(usage["cell"].values, usage["cpu"].values, spread)
        assert cells.tolist() == ["a", "b"]
        assert out.tolist() == pytest.approx([0.45, 0.1])

    def test_first_last_nunique(self, usage):
        tiers = usage["tier"].values
        rows = np.arange(len(usage))
        _, first = group_reduce(usage["cell"].values, rows, np.minimum.reduceat)
        _, last = group_reduce(usage["cell"].values, rows, np.maximum.reduceat)
        assert tiers[first].tolist() == ["prod", "beb"]
        assert tiers[last].tolist() == ["free", "prod"]
        order, starts = segments(usage["cell"].values)
        groups = np.split(order, starts[1:])
        assert [len(segments(tiers[g])[1]) for g in groups] == [3, 2]

    def test_empty_table(self):
        keys, total = group_reduce(np.empty(0, dtype=np.int64), np.empty(0))
        assert (len(keys), len(total)) == (0, 0)
        assert keys.dtype == np.int64 and total.dtype == np.float64

    def test_size_shorthand(self, usage):
        order, starts = segments(usage["tier"].values)
        assert np.diff(starts, append=len(order)).tolist() == [2, 1, 2]

    def test_groups_returns_indices(self, usage):
        order, starts = segments(usage["cell"].values)
        groups = np.split(order, starts[1:])
        assert [g.tolist() for g in groups] == [[0, 1, 4], [2, 3]]
