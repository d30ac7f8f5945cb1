"""Unit tests for the bag evaluator's identity-scan shortcut.

It must (a) fire on the shape it claims, (b) never fire where it does
not apply, and (c) agree with the generic recursion bit-for-bit (the
latter is also covered globally by the reference-equivalence property
tests).
"""

import numpy as np

from repro.engine import BagInput, EngineConfig, EXISTS
from repro.engine.generic_join import BagEvaluator, evaluate_bag
from repro.storage import Relation, Trie


def trie_of(rows, annotations=None, key_order=None):
    data = np.asarray(rows, dtype=np.uint32).reshape(-1,
                                                     len(rows[0]))
    return Trie(Relation("R", data, annotations), key_order=key_order)


PAIRS = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)]


class TestIdentityScan:
    def test_fires_on_single_full_output_atom(self):
        edge = trie_of(PAIRS)
        evaluator = BagEvaluator(("x", "z"), 2,
                                 [BagInput(edge, ("x", "z"))],
                                 EXISTS, EngineConfig())
        fast = evaluator._try_identity_scan()
        assert fast is not None
        assert fast.data.tolist() == sorted([list(p) for p in PAIRS])

    def test_preserves_annotations(self):
        edge = trie_of(PAIRS, annotations=np.arange(5, dtype=float))
        result = evaluate_bag(("x", "z"), 2,
                              [BagInput(edge, ("x", "z"), annotated=True)],
                              EXISTS, EngineConfig())
        assert result.annotations is not None
        assert result.annotations.shape[0] == 5

    def test_does_not_fire_with_projection(self):
        edge = trie_of(PAIRS)
        evaluator = BagEvaluator(("x", "z"), 1,
                                 [BagInput(edge, ("x", "z"))],
                                 EXISTS, EngineConfig())
        assert evaluator._try_identity_scan() is None

    def test_does_not_fire_with_two_atoms(self):
        edge = trie_of(PAIRS)
        evaluator = BagEvaluator(("x", "z"), 2,
                                 [BagInput(edge, ("x", "z")),
                                  BagInput(trie_of(PAIRS), ("x", "z"))],
                                 EXISTS, EngineConfig())
        assert evaluator._try_identity_scan() is None
