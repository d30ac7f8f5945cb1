"""Unit tests for the intersection kernels and the hybrid dispatcher."""

import itertools
import random

import numpy as np
import pytest

from repro.sets import (BitPackedSet, BitSet, BlockedSet, GALLOPING_THRESHOLD,
                        OpCounter, PShortSet, UINT_ALGORITHMS, UintSet,
                        VariantSet, choose_uint_algorithm, intersect,
                        intersect_many, intersect_uint_arrays)

LAYOUTS = [UintSet, BitSet, PShortSet, VariantSet, BitPackedSet, BlockedSet]


def _sets(seed=0):
    rng = random.Random(seed)
    a = sorted(rng.sample(range(5000), 400))
    b = sorted(rng.sample(range(5000), 1500))
    return a, b, sorted(set(a) & set(b))


class TestUintKernels:
    @pytest.mark.parametrize("algorithm", UINT_ALGORITHMS)
    def test_correct_vs_python_sets(self, algorithm):
        a, b, expected = _sets(1)
        out = intersect_uint_arrays(
            np.asarray(a, dtype=np.uint32), np.asarray(b, dtype=np.uint32),
            algorithm=algorithm)
        assert out.tolist() == expected

    @pytest.mark.parametrize("algorithm", UINT_ALGORITHMS)
    def test_commutative(self, algorithm):
        a, b, _ = _sets(2)
        arr_a = np.asarray(a, dtype=np.uint32)
        arr_b = np.asarray(b, dtype=np.uint32)
        forward = intersect_uint_arrays(arr_a, arr_b, algorithm=algorithm)
        backward = intersect_uint_arrays(arr_b, arr_a, algorithm=algorithm)
        assert forward.tolist() == backward.tolist()

    @pytest.mark.parametrize("algorithm", UINT_ALGORITHMS)
    def test_disjoint(self, algorithm):
        a = np.arange(0, 100, dtype=np.uint32)
        b = np.arange(1000, 1100, dtype=np.uint32)
        assert intersect_uint_arrays(a, b, algorithm=algorithm).size == 0

    def test_empty_operand_short_circuits(self):
        counter = OpCounter()
        out = intersect_uint_arrays(np.empty(0, dtype=np.uint32),
                                    np.arange(5, dtype=np.uint32),
                                    counter=counter)
        assert out.size == 0
        assert counter.intersections == 0

    def test_scalar_fallback(self):
        a, b, expected = _sets(3)
        out = intersect_uint_arrays(
            np.asarray(a, dtype=np.uint32), np.asarray(b, dtype=np.uint32),
            simd=False)
        assert out.tolist() == expected


class TestHybridDispatcher:
    """Paper Algorithm 2: galloping past the 32:1 cardinality ratio."""

    def test_threshold_value(self):
        assert GALLOPING_THRESHOLD == 32

    def test_similar_sizes_use_shuffling(self):
        assert choose_uint_algorithm(100, 100) == "shuffling"
        assert choose_uint_algorithm(100, 3200) == "shuffling"

    def test_skewed_sizes_use_galloping(self):
        assert choose_uint_algorithm(100, 3300) == "simd_galloping"
        assert choose_uint_algorithm(3300, 100) == "simd_galloping"

    def test_adaptive_disabled_always_shuffles(self):
        assert choose_uint_algorithm(1, 10 ** 6,
                                     adaptive=False) == "shuffling"

    def test_dispatch_records_chosen_algorithm(self):
        counter = OpCounter()
        small = np.arange(4, dtype=np.uint32)
        large = np.arange(0, 10000, 2, dtype=np.uint32)
        intersect_uint_arrays(small, large, counter=counter)
        assert "simd_galloping" in counter.by_algorithm

    def test_crossover_override_changes_dispatch(self):
        # 100 vs 800 is an 8:1 ratio: shuffling under the paper's 32:1,
        # galloping under an explicit crossover of 4.
        assert choose_uint_algorithm(100, 800) == "shuffling"
        assert choose_uint_algorithm(100, 800,
                                     crossover=4.0) == "simd_galloping"
        assert choose_uint_algorithm(100, 800,
                                     crossover=512.0) == "shuffling"

    def test_dispatch_reads_live_cost_constant(self, monkeypatch):
        # Regression: GALLOPING_THRESHOLD used to be an import-time
        # snapshot of cost.GALLOPING_CROSSOVER, so overriding the cost
        # constant (as an experiment might) silently
        # did nothing.  Dispatch must read the live value.
        from repro.sets import cost
        assert choose_uint_algorithm(100, 800) == "shuffling"
        monkeypatch.setattr(cost, "GALLOPING_CROSSOVER", 4)
        assert choose_uint_algorithm(100, 800) == "simd_galloping"

    def test_threshold_alias_stays_documented_value(self):
        # The re-exported alias is documentation of the paper constant;
        # live dispatch goes through cost.GALLOPING_CROSSOVER.
        import importlib
        intersect_module = importlib.import_module(
            "repro.sets.intersect")  # the package re-exports a same-
        # named function, which plain ``import ... as`` would bind
        assert intersect_module.GALLOPING_THRESHOLD == 32


class TestLayoutPairs:
    @pytest.mark.parametrize("layout_a,layout_b",
                             list(itertools.product(LAYOUTS, repeat=2)))
    def test_all_pairs_agree(self, layout_a, layout_b):
        a, b, expected = _sets(4)
        out = intersect(layout_a(a), layout_b(b))
        assert out.to_array().tolist() == expected

    def test_bitset_pair_returns_bitset(self):
        out = intersect(BitSet([1, 2, 3]), BitSet([2, 3, 4]))
        assert out.kind == "bitset"
        assert list(out.to_array()) == [2, 3]

    def test_uint_bitset_returns_uint(self):
        out = intersect(UintSet([1, 2, 3]), BitSet([2, 3, 4]))
        assert out.kind == "uint"

    def test_uint_bitset_cross_block_false_positive_rejected(self):
        # 300 shares block 1 with 257, but is not a member: the offset
        # match must be confirmed by the bit probe (§4.2 UINT∩BITSET).
        out = intersect(UintSet([300]), BitSet([257, 511]))
        assert out.cardinality == 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_empty_pairs(self, layout):
        assert intersect(layout([]), layout([1, 2])).cardinality == 0
        assert intersect(layout([1, 2]), layout([])).cardinality == 0

    def test_rejects_non_layout(self):
        with pytest.raises(TypeError):
            intersect([1, 2], UintSet([1]))

    def test_scalar_mode_all_pairs(self):
        a, b, expected = _sets(5)
        for layout_a, layout_b in itertools.product(
                [UintSet, BitSet, BlockedSet], repeat=2):
            out = intersect(layout_a(a), layout_b(b), simd=False)
            assert out.to_array().tolist() == expected


class TestIntersectMany:
    def test_three_way(self):
        sets = [UintSet([1, 2, 3, 4]), BitSet([2, 3, 4, 5]),
                UintSet([3, 4, 6])]
        out = intersect_many(sets)
        assert list(out.to_array()) == [3, 4]

    def test_single_set_passthrough(self):
        s = UintSet([1, 2])
        assert intersect_many([s]) is s

    def test_empty_early_exit(self):
        counter = OpCounter()
        out = intersect_many([UintSet([]), UintSet([1]), UintSet([2])],
                             counter=counter)
        assert out.cardinality == 0

    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            intersect_many([])

    def test_order_invariant(self):
        sets = [list(range(0, 100, 2)), list(range(0, 100, 3)),
                list(range(0, 100, 5))]
        expected = sorted(set(sets[0]) & set(sets[1]) & set(sets[2]))
        for perm in itertools.permutations(sets):
            out = intersect_many([UintSet(s) for s in perm])
            assert list(out.to_array()) == expected
