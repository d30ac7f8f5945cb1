"""End-to-end tests of the Database façade."""

import numpy as np
import pytest

from repro import (Ablation, Database, EngineConfig, QuerySyntaxError,
                   SchemaError, UnknownRelationError)
from repro.graphs import chung_lu_graph


class TestLoading:
    def test_add_relation_arbitrary_values(self):
        db = Database()
        db.add_relation("Likes", [("ann", "bob"), ("bob", "cat")])
        result = db.query("Q(x,y) :- Likes(x,y).")
        assert set(result.tuples()) == {("ann", "bob"), ("bob", "cat")}

    def test_add_encoded(self):
        db = Database()
        db.add_encoded("R", [[0, 1], [2, 3]])
        assert db.query("Q(x,y) :- R(x,y).").count == 2

    def test_add_scalar_available_in_expressions(self):
        db = Database()
        db.add_encoded("R", [[0, 1]])
        db.add_scalar("K", 4.0)
        result = db.query("Q(x;v:float) :- R(x,y); v=2*K.")
        assert result.annotations.tolist() == [8.0]

    def test_load_graph_undirected_stores_both_directions(self):
        db = Database()
        db.load_graph("Edge", [(1, 2)])
        assert db.relation("Edge").cardinality == 2

    def test_load_graph_directed(self):
        db = Database()
        db.load_graph("Edge", [(1, 2)], undirected=False)
        assert db.relation("Edge").cardinality == 1

    def test_load_graph_prune_halves(self):
        db = Database()
        db.load_graph("Edge", [(1, 2), (2, 3)], prune=True)
        assert db.relation("Edge").cardinality == 2

    def test_reload_replaces(self):
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        db.load_graph("Edge", [(5, 6), (6, 7)])
        assert set(db.query("Q(x,y) :- Edge(x,y).").tuples()) == {
            (5, 6), (6, 5), (6, 7), (7, 6)}

    def test_unknown_relation_lists_known(self):
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        with pytest.raises(UnknownRelationError) as info:
            db.relation("Edgy")
        assert "Edge" in str(info.value)


class TestQuerying:
    def test_scalar_result(self):
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)], prune=True)
        result = db.query("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                          "w=<<COUNT(*)>>.")
        assert result.scalar == 1.0

    def test_scalar_guarded_on_tabular_result(self):
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        result = db.query("Q(x,y) :- Edge(x,y).")
        with pytest.raises(SchemaError):
            result.scalar

    def test_to_dict_requires_annotations(self):
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        with pytest.raises(SchemaError):
            db.query("Q(x,y) :- Edge(x,y).").to_dict()

    def test_to_dict_multi_key(self):
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        result = db.query("Q(x,y;v:int) :- Edge(x,y); v=7.")
        assert result.to_dict() == {(0, 1): 7.0, (1, 0): 7.0}

    def test_intermediate_heads_persist(self):
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2)])
        db.query("Hop(x,y) :- Edge(x,z),Edge(z,y).")
        assert db.relation("Hop").cardinality > 0
        reuse = db.query("Q(x) :- Hop(x,x).")
        assert set(reuse.tuples()) == {(0,), (1,), (2,)}

    def test_syntax_errors_propagate(self):
        db = Database()
        with pytest.raises(QuerySyntaxError):
            db.query("broken(")

    def test_explain_mentions_ghd(self):
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
        text = db.explain("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                          "w=<<COUNT(*)>>.")
        assert "GHD" in text and "width" in text

    def test_counter_accumulates(self):
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)], prune=True)
        db.query("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                 "w=<<COUNT(*)>>.")
        assert db.counter.total_ops > 0


class TestColumnarDecode:
    """Results decode a column at a time; what comes out must be what
    went in — Python ``int`` node ids (never numpy scalars), the very
    objects of a mixed-type dictionary — with ``float`` annotations."""

    DEGREE = "D(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>."
    PAIRS = "Q(x,y;v:int) :- Edge(x,y); v=7."

    def test_int_dictionaries_decode_to_python_ints(self):
        db = Database()
        db.load_graph("Edge", [(10, 20), (20, 30), (10, 30), (30, 40)])
        result = db.query(self.DEGREE)
        as_dict = result.to_dict()
        assert as_dict == {10: 2.0, 20: 2.0, 30: 3.0, 40: 1.0}
        assert {type(k) for k in as_dict} == {int}
        assert {type(v) for v in as_dict.values()} == {float}
        assert {type(v) for row in result.tuples() for v in row} == {int}
        assert {type(v) for row in result for v in row} == {int}
        (node, degree), = result.top(1)
        assert (node, degree) == (30, 3.0)
        assert type(node) is int and type(degree) is float
        pairs = db.query(self.PAIRS)
        assert {type(v) for key in pairs.to_dict() for v in key} == {int}
        assert pairs.top(2)[0][0] in pairs.to_dict()

    def test_undictionaried_keys_decode_to_python_ints(self):
        db = Database()
        db.add_encoded("Edge", np.asarray([[1, 2], [2, 3]],
                                          dtype=np.uint32))
        rows = db.query("Q(x,y) :- Edge(x,y).").tuples()
        assert rows == [(1, 2), (2, 3)]
        assert {type(v) for row in rows for v in row} == {int}

    def test_mixed_dictionaries_return_the_original_objects(self):
        hub, leaf = ("hub", 1), frozenset([2])
        db = Database()
        db.add_relation("Edge", [(hub, leaf), (hub, 3), (leaf, "s")],
                        annotations=[1.0, 2.0, 4.0])
        decoded = db.query("Q(x;v:float) :- Edge(x,y); v=<<SUM(y)>>.") \
            .to_dict()
        assert decoded == {hub: 3.0, leaf: 4.0}
        assert any(key is hub for key in decoded)
        assert any(key is leaf for key in decoded)
        values = {v for row in db.query("R(y) :- Edge(x,y).").tuples()
                  for v in row}
        assert values == {leaf, 3, "s"}

    def test_a_new_value_after_a_decode_is_decoded_too(self):
        """The int decode column is dropped when the dictionary grows
        and is not rebuilt once a non-int arrives."""
        db = Database()
        db.add_relation("Edge", [(1, 2), (2, 3)])
        assert db.query("Q(x,y) :- Edge(x,y).").tuples() \
            == [(1, 2), (2, 3)]
        db.append("Edge", [(3, 2 ** 70)])
        assert (3, 2 ** 70) in db.query("Q(x,y) :- Edge(x,y).").tuples()
        db.append("Edge", [(4, "four")])
        assert (4, "four") in db.query("Q(x,y) :- Edge(x,y).").tuples()

    def test_top_decodes_only_the_rows_it_returns(self, monkeypatch):
        from repro.storage.dictionary import Dictionary
        db = Database()
        db.load_graph("Edge", [(i, i + 1) for i in range(50)])
        result = db.query(self.DEGREE)
        decoded = []
        original = Dictionary.decode_many

        def counting(self, keys):
            decoded.append(len(keys))
            return original(self, keys)
        monkeypatch.setattr(Dictionary, "decode_many", counting)
        top = result.top(3)
        assert len(top) == 3 and decoded == [3]
        assert {degree for _, degree in top} == {2.0}


class TestConfiguration:
    def test_keyword_overrides(self):
        db = Database(layout_level="uint_only", simd=False)
        assert db.config.ablation.layout_level == "uint_only"
        assert not db.config.ablation.simd

    def test_explicit_config(self):
        config = EngineConfig(ablation=Ablation(use_ghd=False))
        db = Database(config=config)
        assert not db.config.ablation.use_ghd

    def test_default_ordering_scheme(self):
        db = Database(ordering="identity")
        db.load_graph("Edge", [(5, 3)], undirected=False)
        # identity ordering: first-seen value gets id 0
        assert db.relation("Edge").data.tolist() == [[0, 1]]


class TestCardinalityHints:
    """A hint steers GHD costing only: a wildly wrong one changes no
    answer, and clearing hints empties them."""

    TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                 "w=<<COUNT(*)>>.")

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_wrong_hint_keeps_the_answer(self, mode):
        edges = [tuple(e) for e in chung_lu_graph(200, 1500, exponent=1.7,
                                                  seed=5)]
        plain = Database(execution_mode=mode)
        hinted = Database(execution_mode=mode)
        for db in (plain, hinted):
            db.load_graph("Edge", edges, prune=True)
        hinted.set_cardinality_hint("Edge", 4)
        expected = plain.query(self.TRIANGLES).scalar
        assert expected > 0
        assert hinted.query(self.TRIANGLES).scalar == expected
        assert hinted.query(self.TRIANGLES).scalar == expected

    def test_clear_drops_every_hint(self):
        db = Database()
        db.set_cardinality_hint("Edge", 4)
        db.clear_cardinality_hints()
        assert not db._executor.card_hints
