"""Flat-first tries: the root's set layout is built by the first read
of ``root.set`` and the node tree below the root by the first reader
that descends — neither by the default block engine.

The structural numbers in :data:`HEAD` were measured at the commit
before tries became lazy (every node built in the constructor), so the
readers that materialize return exactly what an eager build returned.
"""

import zlib

import numpy as np
import pytest

from repro import Database
from repro.engine.executor import _input_profiles
from repro.engine.generic_join import BagInput
from repro.graphs.analytics import pagerank_program, sssp_program
from repro.graphs.patterns import PATTERN_QUERIES
from repro.sets.optimizer import SetOptimizer
from repro.storage import Relation, Trie

NODES = 90


def _edges():
    """A skewed graph on dense ids plus a block of far-apart ids, so
    the layout optimizer picks more than one layout."""
    rng = np.random.default_rng(7)
    weights = 1.0 / np.arange(1, NODES + 1)
    pairs = rng.choice(NODES, size=(400, 2), p=weights / weights.sum())
    dense = {(int(u), int(v)) for u, v in pairs if u != v}
    sparse = {(int(u) * 7919, int(v) * 7919 + 1)
              for u, v in rng.integers(1, 400, size=(60, 2))}
    return sorted(dense | sparse)


def _relation():
    return Relation("Edge", np.asarray(_edges(), dtype=np.uint32))


def _trie(key_order=(0, 1)):
    return Trie(_relation(), key_order=key_order,
                optimizer=SetOptimizer("set"))


def _checksum(tuples):
    return zlib.crc32(repr(list(tuples)).encode())


#: ``key order -> (nbytes, layout histogram, level-1 sets, crc of
#: tuples())`` of :func:`_trie` at the eager-build commit.
HEAD = {
    (0, 1): (4928, {"bitset": 122, "uint": 5}, 126, 1848147119),
    (1, 0): (4876, {"bitset": 120, "uint": 7}, 126, 931965268),
}


class TestReadersMaterialize:
    @pytest.mark.parametrize("key_order", [(0, 1), (1, 0)])
    def test_structure_matches_the_eager_build(self, key_order):
        nbytes, histogram, level1, crc = HEAD[key_order]
        assert _trie(key_order).nbytes == nbytes
        assert _trie(key_order).layout_histogram() == histogram
        assert len(_trie(key_order).level_sets(1)) == level1
        assert _checksum(_trie(key_order).tuples()) == crc

    @pytest.mark.parametrize("reader", [
        lambda t: t.nbytes, lambda t: t.layout_histogram(),
        lambda t: t.level_sets(1), lambda t: list(t.tuples()),
        lambda t: t.contains(_edges()[0]), lambda t: t.lookup((1,)),
        lambda t: t.root.children, lambda t: t.root.child_at(0),
        lambda t: list(t.annotated_tuples())])
    def test_each_descending_reader_builds_the_tree(self, reader):
        trie = _trie()
        assert not trie.materialized
        reader(trie)
        assert trie.materialized

    def test_root_level_readers_do_not(self):
        trie = _trie()
        flat = trie.flat()
        assert flat.keys.tolist() == sorted({u for u, _ in _edges()})
        assert trie.root.set.cardinality == flat.keys.size
        assert not trie.root.is_leaf
        assert trie.cardinality == len(_edges())
        assert trie.level_sets(0) == [trie.root.set]
        _input_profiles([BagInput(trie, ("x", "y"))])
        assert not trie.materialized

    def test_the_root_set_waits_for_its_first_reader(self):
        """What stays eager: the sorted tuples and the level-0 index.
        The flat view and the plan profiles ask the optimizer for the
        root's layout *kind* and build no set."""
        trie = _trie()
        assert trie.sorted_data.shape[0] == len(_edges())
        assert trie.root.built_set is None
        flat = trie.flat()
        profile, = _input_profiles([BagInput(trie, ("x", "y"))])
        assert trie.root.built_set is None
        assert trie.optimizer.histogram == {}
        assert trie.optimizer.decision_seconds == 0.0
        root_set = trie.root.set
        assert trie.root.built_set is root_set is trie.root.set
        assert root_set.to_array().tolist() == flat.keys.tolist()
        assert profile["kind"] == trie.root_kind == root_set.kind
        assert profile["root_card"] == root_set.cardinality

    @pytest.mark.parametrize("level", ["set", "uint_only", "bitset_only",
                                       "block", "relation"])
    def test_the_kind_is_known_without_the_set(self, level):
        for key_order in ((0, 1), (1, 0)):
            trie = Trie(_relation(), key_order=key_order,
                        optimizer=SetOptimizer(level))
            kind = trie.root_kind
            assert trie.root.built_set is None
            assert kind == trie.root.set.kind

    def test_optimizer_statistics_read_the_same_once_touched(self):
        """A structural reader leaves the optimizer's histogram and
        decision clock as an eager build left them: every set counted
        once, the root's included."""
        lazy = _trie()
        lazy.flat()
        assert lazy.layout_histogram() == HEAD[(0, 1)][1]
        assert lazy.optimizer.histogram == HEAD[(0, 1)][1]
        assert lazy.optimizer.decision_seconds > 0.0
        lazy.root.set
        assert lazy.optimizer.histogram == HEAD[(0, 1)][1]

    def test_level0_index_matches_unique(self):
        for key_order in ((0, 1), (1, 0)):
            trie = _trie(key_order)
            keys, starts = np.unique(trie.sorted_data[:, 0],
                                     return_index=True)
            assert np.array_equal(trie._level0[0], keys)
            assert np.array_equal(trie._level0[1], starts)
            assert trie._level0[0].dtype == keys.dtype

    def test_membership_agrees_with_the_tuples(self):
        trie, stored = _trie(), set(_edges())
        assert all(trie.contains(edge) for edge in stored)
        assert not trie.contains((0, 0))
        assert not trie.contains((7919 * 500, 3))

    def test_unary_and_empty_tries_have_nothing_pending(self):
        unary = Trie(Relation("U", np.array([[3], [1]], dtype=np.uint32)))
        assert unary.materialized and unary.root.is_leaf
        empty = Trie(Relation("E", np.empty((0, 2), dtype=np.uint32)))
        assert list(empty.tuples()) == [] and empty.root.children == []


def _cached_tries(db):
    """The cached tries that have a level below the root."""
    return [t for t in db._trie_cache._tries.values() if t.arity > 1]


def _databases(**overrides):
    full, pruned = Database(**overrides), Database(**overrides)
    full.load_graph("Edge", _edges())
    pruned.load_graph("Edge", _edges(), prune=True)
    return {"triangle": pruned, "four_clique": pruned,
            "lollipop": full, "barbell": full}


class TestDefaultEngineStaysFlat:
    def test_paper_patterns_never_build_a_node_tree(self):
        compiled = _databases(execution_mode="compiled")
        oracle = _databases(execution_mode="interpreted")
        for name, db in compiled.items():
            answer = db.query(PATTERN_QUERIES[name]).scalar
            assert answer == oracle[name].query(PATTERN_QUERIES[name]).scalar
        for db in compiled.values():
            assert _cached_tries(db)
            assert not any(t.materialized for t in _cached_tries(db))
        assert any(t.materialized
                   for db in oracle.values() for t in _cached_tries(db))

    def test_recursion_rounds_stay_flat_too(self):
        db = Database(execution_mode="compiled")
        db.load_graph("Edge", _edges())
        built = []
        retire = db._trie_cache._drop_entry

        def watch(key):
            built.append(db._trie_cache._tries[key].root.built_set)
            retire(key)
        db._trie_cache._drop_entry = watch
        db.query(pagerank_program(iterations=3))
        db.query(sssp_program(_edges()[0][0]))
        assert not any(t.materialized for t in _cached_tries(db))
        # no round's head trie — retired since or still cached — ever
        # built the root set nobody reads
        assert built and all(root_set is None for root_set in built)
        assert all(t.root.built_set is None
                   for t in db._trie_cache._tries.values())

    def test_retiring_an_entry_does_not_build_it(self):
        db = Database(execution_mode="compiled")
        db.load_graph("Edge", _edges())
        db.query(PATTERN_QUERIES["lollipop"])
        tries = _cached_tries(db)
        db._trie_cache.invalidate(db.catalog["Edge"])
        assert not _cached_tries(db)
        assert not any(t.materialized for t in tries)


class TestPatchPath:
    BATCH = [(2, 71), (71, 2), (5, 88), (88, 5)]

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_append_and_delete_then_query(self, mode):
        """A patched trie answers like a rebuilt one, in both engines;
        under the default engine the patched trie stays as flat as the
        one it replaced."""
        query = PATTERN_QUERIES["lollipop"]
        db = Database(execution_mode=mode)
        db.load_graph("Edge", _edges())
        base = db.query(query).scalar
        for rows, mutate in ((self.BATCH, db.append),
                             (self.BATCH[:2], db.delete)):
            assert mutate("Edge", rows) == len(rows)
            fresh = Database(execution_mode=mode)
            fresh.add_encoded("Edge", db.catalog["Edge"].data)
            assert db.query(query).scalar == fresh.query(query).scalar
        assert db._trie_cache.patches > 0
        assert db.query(query).scalar != base
        if mode == "compiled":
            assert not any(t.materialized for t in _cached_tries(db))
        else:
            assert any(t.materialized for t in _cached_tries(db))


if __name__ == "__main__":
    import pprint
    pprint.pprint({order: (_trie(order).nbytes,
                           _trie(order).layout_histogram(),
                           len(_trie(order).level_sets(1)),
                           _checksum(_trie(order).tuples()))
                   for order in ((0, 1), (1, 0))})
