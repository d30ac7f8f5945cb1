"""Unit tests for dictionary encoding (paper §2.2)."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage import Dictionary, identity_dictionary


class TestEncoding:
    def test_assigns_dense_ids_in_order(self):
        d = Dictionary()
        assert [d.encode(v) for v in ["a", "b", "a", "c"]] == [0, 1, 0, 2]
        assert len(d) == 3

    def test_decode_round_trip(self):
        d = Dictionary()
        values = ["x", 42, ("tuple", 1)]
        ids = [d.encode(v) for v in values]
        assert [d.decode(i) for i in ids] == values

    def test_encode_many(self):
        d = Dictionary()
        out = d.encode_many(["a", "b", "a"])
        assert out.dtype == np.uint32
        assert out.tolist() == [0, 1, 0]

    def test_lookup_does_not_assign(self):
        d = Dictionary()
        d.encode("a")
        with pytest.raises(KeyError):
            d.lookup("b")
        assert len(d) == 1

    def test_contains(self):
        d = Dictionary()
        d.encode("a")
        assert "a" in d and "b" not in d

    def test_decode_out_of_range(self):
        d = Dictionary()
        d.encode("a")
        with pytest.raises(KeyError):
            d.decode(5)
        with pytest.raises(KeyError):
            d.decode(-1)

    def test_decode_many(self):
        d = Dictionary()
        for v in "abc":
            d.encode(v)
        assert d.decode_many([2, 0]) == ["c", "a"]


class TestRemap:
    def test_remap_permutes_ids(self):
        d = Dictionary()
        for v in "abc":
            d.encode(v)
        d.remap(np.array([2, 0, 1]))  # a->2, b->0, c->1
        assert d.decode(2) == "a"
        assert d.decode(0) == "b"
        assert d.lookup("c") == 1

    def test_remap_rejects_non_bijection(self):
        d = Dictionary()
        d.encode("a")
        d.encode("b")
        with pytest.raises(SchemaError):
            d.remap(np.array([0, 0]))
        with pytest.raises(SchemaError):
            d.remap(np.array([0]))

    def test_identity_dictionary(self):
        d = identity_dictionary(4)
        assert [d.decode(i) for i in range(4)] == [0, 1, 2, 3]
        assert d.encode(2) == 2


class TestNumpyScalars:
    def test_numpy_scalars_are_stored_as_python_values(self):
        d = Dictionary()
        ids = [d.encode(v) for v in np.array([7, 3, 7], dtype=np.int64)]
        assert ids == [0, 1, 0]
        assert d._int_column() is not None
        values = d.decode_many([1, 0])
        assert values == [3, 7]
        assert all(type(v) is int for v in values)
        assert type(d.decode(0)) is int

    def test_lookups_by_numpy_scalars_still_hit(self):
        d = Dictionary()
        d.encode(np.int64(5))
        d.encode(np.float64(2.5))
        d.encode(np.str_("x"))
        assert d.lookup(np.int64(5)) == d.lookup(5) == 0
        assert d.encode(np.int32(5)) == 0
        assert d.lookup(np.float64(2.5)) == d.lookup(2.5) == 1
        assert np.int64(5) in d and "x" in d
        assert len(d) == 3
        assert [type(v) for v in d.decode_many([0, 1, 2])] \
            == [int, float, str]

    def test_graph_loaded_from_a_numpy_array_decodes_to_ints(self):
        from repro import Database
        db = Database()
        db.load_graph("Edge", np.array([[0, 1], [1, 2], [0, 2]]))
        dictionary = db.relation("Edge").dictionaries[0]
        assert dictionary._int_column() is not None
        columns = db.relation("Edge").decoded_columns()
        assert all(type(v) is int for column in columns for v in column)
