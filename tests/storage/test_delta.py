"""Delta-store row algebra, journal semantics, and in-place mutation.

The delta layer is the storage seam of the versioned-mutable refactor:
``Relation.apply_append`` / ``apply_delete`` keep the effective arrays
canonical while journalling every change batch, and ``DeltaStore``
answers the replay questions the cache-patching and view-maintenance
layers ask.
"""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.delta import (JOURNAL_LIMIT, DeltaStore, merge_sorted,
                                 row_view, rows_in, sort_rows,
                                 subtract_sorted)
from repro.storage.relation import Relation


def rel(rows, annotations=None, name="R"):
    data = np.asarray(rows, dtype=np.uint32).reshape(
        -1, len(rows[0]) if rows else 2)
    ann = None if annotations is None \
        else np.asarray(annotations, dtype=np.float64)
    return Relation(name, data, ann, None)


class TestRowAlgebra:
    def test_row_view_order_matches_lexicographic(self):
        data = np.array([[0, 7], [1, 0], [0, 2], [2, 1], [1, 9]],
                        dtype=np.uint32)
        keys = row_view(data)
        by_view = np.argsort(keys, kind="stable")
        by_lex = np.lexsort((data[:, 1], data[:, 0]))
        assert np.array_equal(by_view, by_lex)

    def test_row_view_large_values(self):
        # Big-endian conversion must keep order beyond one byte.
        data = np.array([[255], [256], [65535], [65536], [2**32 - 1]],
                        dtype=np.uint32)
        keys = row_view(data)
        assert list(np.argsort(keys)) == [0, 1, 2, 3, 4]

    def test_row_view_rejects_scalar_shapes(self):
        with pytest.raises(ValueError):
            row_view(np.empty((3, 0), dtype=np.uint32))

    def test_rows_in(self):
        base = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.uint32)
        probe = np.array([[2, 3], [9, 9], [0, 1], [4, 6]],
                         dtype=np.uint32)
        mask = rows_in(row_view(probe), row_view(base))
        assert list(mask) == [True, False, True, False]
        empty = np.empty((0, 2), dtype=np.uint32)
        assert list(rows_in(row_view(probe), row_view(empty))) \
            == [False] * 4

    def test_merge_sorted_disjoint_union(self):
        base = np.array([[0, 0], [2, 2], [5, 5]], dtype=np.uint32)
        base_ann = np.array([1.0, 2.0, 3.0])
        plus, plus_ann = sort_rows(
            np.array([[6, 0], [1, 1]], dtype=np.uint32),
            np.array([9.0, 8.0]))
        data, ann = merge_sorted(base, base_ann, plus, plus_ann)
        assert data.tolist() == [[0, 0], [1, 1], [2, 2], [5, 5], [6, 0]]
        assert ann.tolist() == [1.0, 8.0, 2.0, 3.0, 9.0]

    def test_subtract_sorted(self):
        base = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.uint32)
        ann = np.array([1.0, 2.0, 3.0])
        minus = np.array([[1, 1], [9, 9]], dtype=np.uint32)
        data, remaining = subtract_sorted(base, ann, minus)
        assert data.tolist() == [[0, 0], [2, 2]]
        assert remaining.tolist() == [1.0, 3.0]


class TestDeltaStore:
    def entry(self, n):
        return np.arange(2 * n, dtype=np.uint32).reshape(n, 2)

    def test_pending_and_merge_threshold(self):
        store = DeltaStore(base_rows=100)
        store.record(1, "+", self.entry(20))
        assert store.pending == 20
        assert not store.should_merge()   # 20 <= 0.25 * 100
        store.record(2, "-", self.entry(6))
        assert store.pending == 26
        assert store.should_merge()

    def test_small_base_uses_floor(self):
        # base_rows=2 would merge on every single-row append without
        # the floor of 16.
        store = DeltaStore(base_rows=2)
        store.record(1, "+", self.entry(4))
        assert not store.should_merge()
        store.record(2, "+", self.entry(1))
        assert store.should_merge()

    def test_journal_limit_forces_merge(self):
        store = DeltaStore(base_rows=10**9)
        for version in range(JOURNAL_LIMIT + 1):
            store.record(version + 1, "+", self.entry(1))
        assert store.should_merge()

    def test_merge_trims_and_sets_floor(self):
        store = DeltaStore(base_rows=10)
        store.record(1, "+", self.entry(3))
        store.merge(base_rows=13, version=1)
        assert store.journal == [] and store.pending == 0
        assert store.merges == 1 and store.floor_version == 1
        # Consumers at version 0 predate the floor: full rebuild.
        assert store.changes_since(0) is None
        assert store.changes_since(1) == []

    def test_changes_since_filters_by_version(self):
        store = DeltaStore(base_rows=100)
        store.record(1, "+", self.entry(2))
        store.record(2, "-", self.entry(1))
        store.record(3, "+", self.entry(1))
        assert [e.version for e in store.changes_since(1)] == [2, 3]
        assert store.changes_since(3) == []

    def test_pure_inserts_since(self):
        store = DeltaStore(base_rows=100)
        store.record(1, "+", self.entry(2))
        assert [e.kind for e in store.pure_inserts_since(0)] == ["+"]
        store.record(2, "-", self.entry(1))
        assert store.pure_inserts_since(0) is None   # tombstone
        assert store.pure_inserts_since(2) == []      # after it: clean


class TestApplyAppend:
    def test_new_rows_keep_canonical_order_and_bump_version(self):
        r = rel([[2, 2], [0, 0]])
        r._canonicalize()
        assert r.apply_append([[1, 1], [3, 3]]) == 2
        assert r.version == 1
        assert r.data.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]
        assert [e.kind for e in r.delta.journal] == ["+"]

    def test_reappend_existing_is_noop(self):
        r = rel([[0, 0], [1, 1]])
        assert r.apply_append([[1, 1]]) == 0
        assert r.version == 0 and r.delta is None

    def test_annotation_rewrite_journals_minus_plus_pair(self):
        r = rel([[0, 0], [1, 1]], annotations=[5.0, 7.0])
        assert r.apply_append([[1, 1]], annotations=[9.0]) == 1
        assert r.annotations.tolist() == [5.0, 9.0]
        kinds = [e.kind for e in r.delta.journal]
        assert kinds == ["-", "+"]
        assert r.delta.journal[0].annotations.tolist() == [7.0]
        assert r.delta.journal[1].annotations.tolist() == [9.0]
        # The rewrite poisons the insert-only precondition.
        assert r.delta.pure_inserts_since(0) is None

    def test_reappend_same_annotation_is_noop(self):
        r = rel([[0, 0]], annotations=[5.0])
        assert r.apply_append([[0, 0]], annotations=[5.0]) == 0
        assert r.version == 0

    def test_combine_sum_on_existing_row(self):
        r = rel([[0, 0]], annotations=[5.0])
        assert r.apply_append([[0, 0]], annotations=[2.0],
                              combine="sum") == 1
        assert r.annotations.tolist() == [7.0]

    def test_batch_duplicates_collapse_before_apply(self):
        r = rel([[5, 5]])
        assert r.apply_append([[1, 1], [1, 1], [0, 0]]) == 2
        assert r.data.tolist() == [[0, 0], [1, 1], [5, 5]]

    def test_missing_annotations_default_to_one(self):
        r = rel([[0, 0]], annotations=[3.0])
        r.apply_append([[1, 1]])
        assert r.annotations.tolist() == [3.0, 1.0]

    def test_schema_errors(self):
        scalar = Relation.scalar("S", 1.0)
        with pytest.raises(SchemaError):
            scalar.apply_append([[1]])
        plain = rel([[0, 0]])
        with pytest.raises(SchemaError):
            plain.apply_append([[1, 1]], annotations=[2.0])
        annotated = rel([[0, 0]], annotations=[1.0])
        with pytest.raises(SchemaError):
            annotated.apply_append([[1, 1], [2, 2]], annotations=[1.0])


class TestApplyDelete:
    def test_delete_removes_and_journals_tombstone(self):
        r = rel([[0, 0], [1, 1], [2, 2]], annotations=[1.0, 2.0, 3.0])
        assert r.apply_delete([[1, 1]]) == 1
        assert r.data.tolist() == [[0, 0], [2, 2]]
        assert r.annotations.tolist() == [1.0, 3.0]
        entry = r.delta.journal[-1]
        assert entry.kind == "-"
        assert entry.annotations.tolist() == [2.0]

    def test_delete_absent_is_noop(self):
        r = rel([[0, 0]])
        assert r.apply_delete([[9, 9]]) == 0
        assert r.version == 0 and r.delta is None

    def test_interleaved_history_matches_recompute(self):
        rng = np.random.default_rng(7)
        r = rel([[0, 0]])
        expected = {(0, 0)}
        for _ in range(60):
            batch = [tuple(int(v) for v in rng.integers(0, 6, size=2))
                     for _ in range(int(rng.integers(1, 4)))]
            if rng.random() < 0.6:
                r.apply_append(batch)
                expected.update(batch)
            else:
                r.apply_delete(batch)
                expected.difference_update(batch)
        assert {tuple(int(v) for v in row) for row in r.data} == expected
        # Canonical invariant held throughout: lexsorted, no dupes.
        assert r._canonical
        resorted, _ = sort_rows(r.data.copy())
        assert np.array_equal(r.data, resorted)
        keys = row_view(r.data)
        assert keys.size == np.unique(keys).size

    def test_merge_threshold_trims_journal(self):
        r = rel([[c, c] for c in range(8)])
        r._canonicalize()
        # 5 new rows > 0.25 * max(8, 16) = 4 -> merge right after.
        assert r.apply_append([[10 + c, 0] for c in range(5)]) == 5
        assert r.delta.journal == []
        assert r.delta.merges == 1
        assert r.delta.floor_version == r.version
