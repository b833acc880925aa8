"""Unit tests for the Table operators."""

import numpy as np
import pytest

from repro.table import Table, concat
from repro.util.errors import SchemaError


@pytest.fixture
def table():
    return Table({
        "tier": ["prod", "beb", "beb", "free"],
        "cpu": [0.5, 0.1, 0.2, 0.05],
        "tasks": [3, 1, 7, 2],
    })


class TestConstruction:
    def test_len_and_columns(self, table):
        assert len(table) == 4
        assert table.column_names == ["tier", "cpu", "tasks"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table({"a": [1, 2], "b": [1]})

    def test_empty_table(self):
        t = Table()
        assert len(t) == 0
        assert t.column_names == []

    def test_bad_column_name(self):
        with pytest.raises(SchemaError):
            Table({"": [1]})


class TestAccess:
    def test_unknown_column_raises_with_suggestions(self, table):
        with pytest.raises(SchemaError, match="available"):
            table.column("nope")

    def test_contains(self, table):
        assert "cpu" in table
        assert "nope" not in table


class TestOperators:
    def test_select_orders_columns(self, table):
        assert table.select("cpu", "tier").column_names == ["cpu", "tier"]

    def test_filter_expr(self, table):
        t = table.filter(table["tier"] == "beb")
        assert len(t) == 2
        assert t.column("cpu").to_list() == [0.1, 0.2]

    def test_filter_mask(self, table):
        t = table.filter(np.array([True, False, False, True]))
        assert t.column("tier").to_list() == ["prod", "free"]

    def test_filter_wrong_length_mask(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.array([True]))

    def test_filter_non_boolean(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.array([1, 2, 3, 4]))

    def test_compound_predicate(self, table):
        t = table.filter((table["tier"] == "beb") & (table["cpu"] > 0.15))
        assert len(t) == 1

    def test_take(self, table):
        assert table.take([2, 0]).column("tier").to_list() == ["beb", "prod"]

    def test_sort_single_key(self, table):
        t = table.sort("cpu")
        assert t.column("cpu").to_list() == [0.05, 0.1, 0.2, 0.5]

    def test_sort_multi_key_stable(self, table):
        t = table.sort("tier", "tasks")
        assert t.column("tier").to_list() == ["beb", "beb", "free", "prod"]
        assert t.column("tasks").to_list()[:2] == [1, 7]

    def test_sort_no_keys(self, table):
        with pytest.raises(SchemaError):
            table.sort()

    def test_distinct(self):
        t = Table({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert len(t.distinct()) == 2

    def test_distinct_subset(self):
        t = Table({"a": [1, 1, 2], "b": ["x", "y", "z"]})
        assert len(t.distinct("a")) == 2


class TestConcat:
    def test_concat_stacks(self):
        a = Table({"x": [1], "s": ["a"]})
        b = Table({"x": [2], "s": ["b"]})
        merged = concat([a, b])
        assert merged.column("x").to_list() == [1, 2]
        assert merged.column("s").to_list() == ["a", "b"]

    def test_concat_schema_mismatch(self):
        with pytest.raises(SchemaError):
            concat([Table({"x": [1]}), Table({"y": [1]})])

    def test_concat_empty_list(self):
        assert len(concat([])) == 0


class TestRendering:
    def test_to_string_contains_headers(self, table):
        text = table.to_string()
        assert "tier" in text and "prod" in text

    def test_to_string_truncates(self):
        t = Table({"x": list(range(100))})
        assert "more rows" in t.to_string(max_rows=5)

    def test_to_dict(self, table):
        assert table.to_dict()["tasks"] == [3, 1, 7, 2]
