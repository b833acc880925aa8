"""Unit tests for boolean row masks and CSV round-trips."""

import io

import pytest

from repro.table import Table, read_csv, write_csv
from repro.util.errors import SchemaError


@pytest.fixture
def table():
    return Table({"x": [1.0, 2.0, 3.0], "name": ["a", "b", "c"], "n": [1, 2, 3]})


class TestExpr:
    """Row predicates are boolean masks built from column comparisons."""

    def test_column_reference(self, table):
        assert table["x"] is table.column("x")
        assert table["x"].to_list() == [1.0, 2.0, 3.0]

    def test_comparison_chain(self, table):
        mask = (table["x"] > 1) & (table["x"] < 3)
        assert mask.tolist() == [False, True, False]
        assert table.filter(mask).column("name").to_list() == ["b"]

    def test_or_and_invert(self, table):
        mask = ~((table["n"] == 1) | (table["n"] == 3))
        assert mask.tolist() == [False, True, False]

    def test_isin(self, table):
        assert table["name"].isin(["a", "c"]).tolist() == [True, False, True]

    def test_isin_numeric(self, table):
        assert table["n"].isin([2]).tolist() == [False, True, False]

    def test_expr_vs_expr_comparison(self, table):
        assert (table["x"] == table["n"]).tolist() == [True, True, True]


class TestCsv:
    def test_roundtrip_all_kinds(self, tmp_path):
        t = Table({
            "f": [1.5, -2.25],
            "i": [1, -2],
            "s": ["hello", "wor,ld"],
            "b": [True, False],
        })
        path = tmp_path / "t.csv"
        write_csv(t, path)
        back = read_csv(path)
        assert back.to_dict() == t.to_dict()
        assert [back.column(c).kind for c in back.column_names] == ["float", "int", "str", "bool"]

    def test_float_precision_preserved(self, tmp_path):
        t = Table({"x": [0.1 + 0.2, 1e-17]})
        path = tmp_path / "t.csv"
        write_csv(t, path)
        assert read_csv(path).column("x").to_list() == t.column("x").to_list()

    def test_column_subset(self, tmp_path):
        t = Table({"a": [1], "b": [2]})
        path = tmp_path / "t.csv"
        write_csv(t, path)
        assert read_csv(path, columns=["b"]).column_names == ["b"]

    def test_missing_column_requested(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(Table({"a": [1]}), path)
        with pytest.raises(SchemaError):
            read_csv(path, columns=["zz"])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(SchemaError, match="line 3"):
            read_csv(path)

    def test_buffer_io(self):
        buf = io.StringIO()
        write_csv(Table({"a": [1, 2]}), buf)
        buf.seek(0)
        assert read_csv(buf).column("a").to_list() == [1, 2]

    def test_header_only_yields_empty_table(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        t = read_csv(path)
        assert len(t) == 0 and t.column_names == ["a", "b"]
