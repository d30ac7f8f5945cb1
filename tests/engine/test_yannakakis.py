"""Tests of the across-bag machinery: bottom-up semijoins + top-down.

These force multi-bag plans (acyclic queries where the head spans bags)
and check the Yannakakis passes against reference joins, including the
annotated top-down multiplication and the B.2 elision switch.
"""

import numpy as np
import pytest

from repro import Database


def reference_two_hop(edges):
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
    out = set()
    for u in adjacency:
        for mid in adjacency[u]:
            for w in adjacency.get(mid, ()):
                out.add((u, w))
    return out


class TestTopDown:
    def test_two_hop_spans_bags(self):
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 0)]
        db = Database(ordering="identity")
        db.load_graph("Edge", edges, undirected=False)
        result = set(db.query("Q(x,y) :- Edge(x,z),Edge(z,y).").tuples())
        assert result == reference_two_hop(edges)

    def test_three_hop_chain(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
        db = Database(ordering="identity")
        db.load_graph("Edge", edges, undirected=False)
        result = set(db.query(
            "Q(a,d) :- Edge(a,b),Edge(b,c),Edge(c,d).").tuples())
        adjacency = {}
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
        expected = {(a, d)
                    for a in adjacency for b in adjacency[a]
                    for c in adjacency.get(b, ())
                    for d in adjacency.get(c, ())}
        assert result == expected

    def test_skip_top_down_toggle_equivalent(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        for skip in (True, False):
            db = Database(ordering="identity", skip_top_down=skip)
            db.load_graph("Edge", edges, undirected=False)
            got = set(db.query(
                "Q(x,y) :- Edge(x,z),Edge(z,y).").tuples())
            assert got == reference_two_hop(edges), skip

    def test_annotations_multiply_across_bags(self):
        """Materialized join of two annotated relations through a
        multi-bag plan must carry the product annotation."""
        db = Database()
        db.add_encoded("A", [[0, 1], [0, 2]], annotations=[2.0, 3.0])
        db.add_encoded("B", [[1, 5], [2, 5]], annotations=[10.0, 100.0])
        result = db.query("Q(x,z;v:float) :- A(x,y),B(y,z); "
                          "v=<<SUM(y)>>.")
        got = result.to_dict()
        # (0,5): 2*10 + 3*100
        assert got[(0, 5)] == pytest.approx(320.0)

    def test_dangling_tuples_filtered(self):
        """Semijoin reduction: tuples with no join partner never appear
        and never inflate the top-down join."""
        db = Database(ordering="identity")
        db.add_encoded("A", [[0, 1], [9, 9]])
        db.add_encoded("B", [[1, 2]])
        result = db.query("Q(x,y,z) :- A(x,y),B(y,z).")
        assert set(result.tuples()) == {(0, 1, 2)}


class TestChildPassUp:
    def test_aggregated_child_values_flow_up(self):
        """Barbell count: child triangle counts multiply at the root —
        checked against an explicit per-node triangle count."""
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (3, 5),
                 (2, 3)]
        db = Database()
        db.load_graph("Edge", edges)
        got = db.query(
            "BB(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,p),"
            "Edge(p,q),Edge(q,r),Edge(p,r); w=<<COUNT(*)>>.").scalar
        adjacency = {}
        for u, v in edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        ordered_triangles_at = {}
        for x in adjacency:
            count = 0
            for y in adjacency[x]:
                for z in adjacency[x]:
                    if y != z and z in adjacency[y]:
                        count += 1
            ordered_triangles_at[x] = count
        expected = sum(
            ordered_triangles_at[x] * ordered_triangles_at[p]
            for x in adjacency for p in adjacency[x])
        assert got == expected


def hash_join_reference(left, left_attrs, left_ann, right, right_attrs,
                        right_ann):
    """The per-tuple hash join the top-down pass used to run, kept as
    the reference for its vectorized replacement."""
    shared = [a for a in left_attrs if a in right_attrs]
    left_keys = [left_attrs.index(a) for a in shared]
    right_keys = [right_attrs.index(a) for a in shared]
    right_extra = [i for i, a in enumerate(right_attrs) if a not in shared]
    table = {}
    for row_index in range(right.shape[0]):
        key = tuple(int(right[row_index, c]) for c in right_keys)
        table.setdefault(key, []).append(row_index)
    out_rows = []
    out_ann = []
    for row_index in range(left.shape[0]):
        key = tuple(int(left[row_index, c]) for c in left_keys)
        for match in table.get(key, ()):
            combined = list(left[row_index]) \
                + [right[match, c] for c in right_extra]
            out_rows.append(combined)
            if left_ann is not None or right_ann is not None:
                product = (left_ann[row_index]
                           if left_ann is not None else 1.0) \
                    * (right_ann[match] if right_ann is not None else 1.0)
                out_ann.append(product)
    attrs = list(left_attrs) + [right_attrs[c] for c in right_extra]
    data = np.asarray(out_rows, dtype=np.uint32).reshape(len(out_rows),
                                                         len(attrs))
    annotations = np.asarray(out_ann) if out_ann else None
    return data, attrs, annotations


class TestMergeJoin:
    """The top-down assembly's join is a numpy sort-merge; it must
    emit what the per-tuple hash join did, in the same order: left row
    order, the matches of a left row in right row order, annotations
    multiplied left × right."""

    @staticmethod
    def side(rng, rows, attrs, annotated, high=6):
        data = rng.integers(0, high, size=(rows, len(attrs))) \
            .astype(np.uint32)
        weights = rng.integers(1, 9, size=rows) / 4.0 if annotated \
            else None
        return data, list(attrs), weights

    @pytest.mark.parametrize("left_annotated", [False, True])
    @pytest.mark.parametrize("right_annotated", [False, True])
    @pytest.mark.parametrize("left_attrs,right_attrs", [
        ("ab", "bc"),       # one shared column
        ("abc", "cbd"),     # two, in another order on the right
        ("abcd", "dcba"),   # four: nothing new on the right
        ("ab", "cd"),       # none: a cross product
        ("a", "a"),         # a semijoin
        ("", "ab"),         # a zero-column identity row on the left
    ])
    def test_same_rows_same_order(self, left_attrs, right_attrs,
                                  left_annotated, right_annotated):
        from repro.engine.executor import _merge_join
        rng = np.random.default_rng(len(left_attrs) * 7
                                    + len(right_attrs))
        for left_rows, right_rows in [(40, 30), (1, 25), (30, 0), (0, 5)]:
            if not left_attrs:
                left_rows = min(left_rows, 1)
            left = self.side(rng, left_rows, left_attrs, left_annotated)
            right = self.side(rng, right_rows, right_attrs,
                              right_annotated)
            data, attrs, ann = _merge_join(*left, *right)
            want_data, want_attrs, want_ann = hash_join_reference(*left,
                                                                  *right)
            assert attrs == want_attrs
            assert data.dtype == want_data.dtype == np.uint32
            assert data.shape == want_data.shape
            assert np.array_equal(data, want_data)
            assert (ann is None) == (want_ann is None)
            if ann is not None:
                assert np.array_equal(ann, want_ann)

    def test_large_keys_do_not_collide(self):
        from repro.engine.executor import _merge_join
        big = 2 ** 32 - 1
        left = np.asarray([[big, 0], [0, big], [big, big]], dtype=np.uint32)
        right = np.asarray([[0, big, 7], [big, big, 8]], dtype=np.uint32)
        data, attrs, ann = _merge_join(left, ["a", "b"], None,
                                       right, ["a", "b", "c"], None)
        assert attrs == ["a", "b", "c"] and ann is None
        assert data.tolist() == [[0, big, 7], [big, big, 8]]
