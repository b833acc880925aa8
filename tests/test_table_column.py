"""Unit tests for the columnar engine's Column type."""

import numpy as np
import pytest

from repro.table import Column, Table, concat
from repro.table.column import empty_column
from repro.util.errors import SchemaError


class TestConstruction:
    def test_float_kind(self):
        assert Column([1.0, 2.0]).kind == "float"

    def test_int_kind(self):
        assert Column([1, 2, 3]).kind == "int"

    def test_bool_kind(self):
        assert Column([True, False]).kind == "bool"

    def test_str_kind(self):
        assert Column(["a", "b"]).kind == "str"

    def test_ints_preserved_not_floats(self):
        col = Column([1, 2])
        assert col.values.dtype == np.int64

    def test_from_numpy_float32_upcasts(self):
        col = Column(np.asarray([1.5], dtype=np.float32))
        assert col.values.dtype == np.float64

    def test_from_column_shares_data(self):
        a = Column([1.0, 2.0])
        b = Column(a)
        assert b.values is a.values

    def test_rejects_2d(self):
        with pytest.raises(SchemaError):
            Column(np.zeros((2, 2)))

    def test_rejects_mixed_objects(self):
        # numpy makes the last two ``<U`` arrays ('1', '1.5', 'True'):
        # the column must reject the elements, not store their text.
        for values, bad in ((["a", object()], "<object"),
                            (["a", 1], "1 of type int"),
                            (["a", 1.5, True], "1.5 of type float")):
            with pytest.raises(SchemaError,
                               match=f"^unsupported column element {bad}"):
                Column(values)

    def test_object_array_with_one_non_str_keeps_message(self):
        with pytest.raises(SchemaError, match=r"^unsupported column element 3 "
                           r"of type int; columns hold floats, ints, bools, "
                           r"or strings$"):
            Column(np.array(["a", "b", 3], dtype=object))

    def test_str_subclass_elements_accepted(self):
        col = Column(np.array([np.str_("a"), "b"], dtype=object))
        assert col.kind == "str"
        assert col.to_list() == ["a", "b"]

    def test_trailing_nul_survives_list_input(self):
        # numpy's ``<U`` drops trailing NULs; a list keeps its own str.
        values = ["tail\x00", "\x00", "a\x00b", "plain"]
        for given in (values, tuple(values)):
            col = Column(given)
            assert col.to_list() == values
            assert [type(v) for v in col] == [str] * 4
        assert Column("x\x00").to_list() == ["x\x00"]

    def test_native_arrays_are_kept_as_is(self):
        for arr in (np.arange(3.0), np.arange(3), np.array([True, False])):
            assert Column(arr).values is arr
        view = np.arange(4.0)[::2]  # strided views are 1-D float64 too
        assert Column(view).values is view

    def test_unicode_array_yields_plain_str(self):
        for values in (["prod", "beb"], np.array(["prod", "beb"]),
                       [np.str_("prod"), "beb"]):
            col = Column(values)
            assert col.kind == "str"
            assert [type(v) for v in col] == [str, str]

    def test_object_input_is_copied(self):
        source = np.array(["a", "b"], dtype=object)
        col = Column(source)
        source[0] = 1
        assert col.to_list() == ["a", "b"]

    def test_string_table_ops_keep_str_kind(self):
        t = Table({"s": ["x", "y", "z"]})
        for out in (t.filter(np.array([True, False, True])), t.take([2, 0]),
                    concat([t, t]), t.sort("s")):
            assert out.column("s").kind == "str"
            assert all(type(v) is str for v in out.column("s"))

    def test_empty_column_per_kind(self):
        for kind in ("float", "int", "bool", "str"):
            col = empty_column(kind)
            assert (len(col), col.kind) == (0, kind)
        with pytest.raises(SchemaError, match="unknown column kind"):
            empty_column("complex")

    def test_empty_column(self):
        assert len(Column([])) == 0


class TestFromCodes:
    NAMES = ["free", "beb", "mid", "prod", "monitoring"]

    @pytest.mark.parametrize("codes", [
        np.array([3, 0, 0, 4, 2, 1], dtype=np.int8),
        np.array([4, 4], dtype=np.int64),
        np.array([], dtype=np.int64),
    ])
    def test_equals_take_then_construct(self, codes):
        names = np.array(self.NAMES, dtype=object)
        col = Column.from_codes(codes, self.NAMES)
        want = Column(names[codes])
        assert col.kind == want.kind == "str"
        assert col.values.dtype == want.values.dtype
        assert col.to_list() == want.to_list()
        assert all(type(v) is str for v in col)

    @pytest.mark.parametrize("bad", [3, None, b"prod"])
    def test_non_str_name_raises(self, bad):
        with pytest.raises(SchemaError, match="code-table entry"):
            Column.from_codes(np.array([0]), ["free", bad])

    def test_names_table_is_checked_even_if_unused(self):
        with pytest.raises(SchemaError):
            Column.from_codes(np.array([0, 0]), ["free", 1.5])


class TestComparisons:
    def test_scalar_comparison_returns_mask(self):
        mask = Column([1.0, 5.0, 3.0]) > 2.0
        assert mask.tolist() == [False, True, True]

    def test_eq_with_string(self):
        mask = Column(["x", "y", "x"]) == "x"
        assert mask.tolist() == [True, False, True]

    def test_ne(self):
        mask = Column([1, 2]) != 1
        assert mask.tolist() == [False, True]

    def test_column_vs_column(self):
        mask = Column([1, 5]) <= Column([2, 4])
        assert mask.tolist() == [True, False]

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Column([1]))


class TestReductions:
    def test_sum_mean(self):
        col = Column([1.0, 2.0, 3.0])
        assert col.sum() == 6.0
        assert col.mean() == 2.0

    def test_min_max(self):
        col = Column([3, 1, 2])
        assert col.min() == 1
        assert col.max() == 3

    def test_min_of_empty_raises(self):
        with pytest.raises(SchemaError):
            Column([]).min()

    def test_numeric_reduction_on_strings_raises(self):
        with pytest.raises(SchemaError):
            Column(["a"]).sum()


class TestMisc:
    def test_isin_numeric(self):
        assert Column([1, 2, 3]).isin([2, 3]).tolist() == [False, True, True]

    def test_isin_strings(self):
        assert Column(["a", "b"]).isin(["b"]).tolist() == [False, True]

    def test_getitem_scalar_and_slice(self):
        col = Column([10, 20, 30])
        assert col[1] == 20
        assert col[1:].to_list() == [20, 30]

    def test_repr_mentions_kind(self):
        assert "int" in repr(Column([1]))
