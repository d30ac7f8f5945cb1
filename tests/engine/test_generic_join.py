"""Unit tests for the generic worst-case optimal join (Algorithm 1)."""

import numpy as np
import pytest

from repro.engine import BagInput, EngineConfig, EXISTS, MIN, SUM
from repro.engine.generic_join import evaluate_bag
from repro.errors import ExecutionError
from repro.storage import Relation, Trie


def trie_of(rows, annotations=None, key_order=None):
    data = np.asarray(rows, dtype=np.uint32).reshape(
        -1, len(rows[0]) if rows else 2)
    return Trie(Relation("R", data, annotations), key_order=key_order)


def config():
    return EngineConfig()


TRIANGLE_EDGES = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1),
                  (2, 3), (3, 2)]


def triangle_inputs():
    t = trie_of(TRIANGLE_EDGES)
    return [BagInput(t, ("x", "y")), BagInput(t, ("y", "z")),
            BagInput(t, ("x", "z"))]


class TestMaterialize:
    def test_triangle_listing(self):
        result = evaluate_bag(("x", "y", "z"), 3, triangle_inputs(),
                              EXISTS, config())
        listed = set(map(tuple, result.data.tolist()))
        expected = {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                    (2, 0, 1), (2, 1, 0)}
        assert listed == expected

    def test_projection_with_exists(self):
        """out=(x): nodes that participate in a triangle, deduplicated."""
        result = evaluate_bag(("x", "y", "z"), 1, triangle_inputs(),
                              EXISTS, config())
        assert sorted(map(tuple, result.data.tolist())) == [(0,), (1,),
                                                            (2,)]

    def test_empty_input_short_circuits(self):
        empty = Trie(Relation("E", np.empty((0, 2), dtype=np.uint32)))
        inputs = [BagInput(empty, ("x", "y"))]
        result = evaluate_bag(("x", "y"), 2, inputs, EXISTS, config())
        assert result.cardinality == 0


class TestAggregation:
    def test_triangle_count_scalar(self):
        result = evaluate_bag(("x", "y", "z"), 0, triangle_inputs(),
                              SUM, config())
        assert result.scalar == 6.0

    def test_per_key_count(self):
        result = evaluate_bag(("x", "y", "z"), 1, triangle_inputs(),
                              SUM, config())
        counts = {row[0]: ann for row, ann in
                  zip(result.data.tolist(), result.annotations)}
        assert counts == {0: 2.0, 1: 2.0, 2: 2.0}

    def test_annotated_sum(self):
        """SUM over neighbors of annotation products."""
        weights = trie_of([(0, 1), (0, 2), (1, 2)],
                          annotations=np.array([10.0, 20.0, 40.0]))
        inputs = [BagInput(weights, ("x", "y"), annotated=True)]
        result = evaluate_bag(("x", "y"), 1, inputs, SUM, config())
        sums = dict(zip((r[0] for r in result.data.tolist()),
                        result.annotations))
        assert sums == {0: 30.0, 1: 40.0}

    def test_annotated_min_product(self):
        edge = trie_of([(5, 1), (5, 2)])
        dist = Trie(Relation("D", np.asarray([[1], [2]], dtype=np.uint32),
                             np.array([7.0, 3.0])))
        inputs = [BagInput(edge, ("x", "w")),
                  BagInput(dist, ("w",), annotated=True)]
        result = evaluate_bag(("x", "w"), 1, inputs, MIN, config())
        assert result.data.tolist() == [[5]]
        assert result.annotations.tolist() == [3.0]

    def test_two_annotated_inputs_multiply(self):
        left = Trie(Relation("L", np.asarray([[1], [2]], dtype=np.uint32),
                             np.array([2.0, 3.0])))
        right = Trie(Relation("R", np.asarray([[1], [2]],
                                              dtype=np.uint32),
                              np.array([10.0, 100.0])))
        inputs = [BagInput(left, ("z",), annotated=True),
                  BagInput(right, ("z",), annotated=True)]
        result = evaluate_bag(("z",), 0, inputs, SUM, config())
        assert result.scalar == 2.0 * 10.0 + 3.0 * 100.0

    def test_annotation_bound_at_earlier_level(self):
        """An atom whose last variable binds before the final level must
        contribute its annotation at that level."""
        weighted_x = Trie(Relation("W", np.asarray([[0], [1]],
                                                   dtype=np.uint32),
                          np.array([5.0, 7.0])))
        edges = trie_of([(0, 1), (1, 2)])
        inputs = [BagInput(weighted_x, ("x",), annotated=True),
                  BagInput(edges, ("x", "y"))]
        result = evaluate_bag(("x", "y"), 0, inputs, SUM, config())
        assert result.scalar == 5.0 + 7.0


class TestValidation:
    def test_uncovered_attribute_rejected(self):
        t = trie_of([(0, 1)])
        with pytest.raises(ExecutionError):
            evaluate_bag(("x", "q"), 0, [BagInput(t, ("x", "y"))],
                         SUM, config())

    def test_arity_mismatch_rejected(self):
        t = trie_of([(0, 1)])
        with pytest.raises(ExecutionError):
            BagInput(t, ("x",))

    def test_semiring_type_checked(self):
        t = trie_of([(0, 1)])
        with pytest.raises(ExecutionError):
            evaluate_bag(("x", "y"), 0, [BagInput(t, ("x", "y"))],
                         "SUM", config())


class TestCursorsRestoredAcrossBranches:
    def test_backtracking_does_not_corrupt_state(self):
        """Descend/undo must restore cursors so sibling branches see the
        root-level sets (regression guard for the undo stack)."""
        # Two 'x' groups with different neighbor sets.
        t = trie_of([(0, 1), (0, 2), (1, 3)])
        u = trie_of([(1, 9), (2, 9), (3, 9)])
        inputs = [BagInput(t, ("x", "y")), BagInput(u, ("y", "w"))]
        result = evaluate_bag(("x", "y", "w"), 3, inputs, EXISTS, config())
        listed = set(map(tuple, result.data.tolist()))
        assert listed == {(0, 1, 9), (0, 2, 9), (1, 3, 9)}
