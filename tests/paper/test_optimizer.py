"""Logical optimizer: the rewrites preserve results and skip work.

``PRUNABLE_QUERY``'s tail variable is purely existential, so attribute
pruning projects it away before GHD search; ``CSE_PROGRAM``'s two rules
contain the same triangle bag, so cross-rule common-subexpression
elimination evaluates it once.  That the pass pipeline costs well
under one bag evaluation is a clock reading, gated in
``benchmarks/floors.py``.
"""

from repro import Database
from repro.graphs import TRIANGLE_COUNT, uniform_graph

PRUNABLE_QUERY = "P(x,y) :- Edge(x,y),Edge(y,z),Edge(z,w)."

CSE_PROGRAM = ("A(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z). "
               "B(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).")


def fresh_db(**overrides):
    """uniform(150 nodes, 700 edges), unpruned."""
    db = Database(**overrides)
    db.load_graph("Edge", [tuple(e) for e in uniform_graph(
        150, 700, seed=29)], prune=False)
    return db


def test_rewrites_preserve_results():
    baseline = fresh_db(prune_attributes=False, fold_constants=False,
                        eliminate_redundant_bags=False)
    optimized = fresh_db()
    for text in (PRUNABLE_QUERY, CSE_PROGRAM, TRIANGLE_COUNT):
        expected = baseline.query(text)
        actual = optimized.query(text)
        if expected.relation.is_scalar():
            assert actual.scalar == expected.scalar
        else:
            assert sorted(actual.tuples()) == sorted(expected.tuples())


def test_pruning_reduces_join_arity():
    """The pruned plan joins a unary slice, not the full binary edge
    relation, for the existential last hop."""
    from repro.lir import OptimizerOptions, optimize_rule
    from repro.query.parser import parse
    db = fresh_db()
    rule = parse(PRUNABLE_QUERY).rules[0]
    logical = optimize_rule(rule, db.catalog,
                            OptimizerOptions.from_config(db.config))
    arities = sorted(len(a.variables) for a in logical.atoms)
    assert arities == [1, 2, 2]


def test_cse_reuses_the_shared_bag():
    """The second rule's triangle bag is a memo hit."""
    db = fresh_db()
    metrics = db.enable_metrics()
    db.query(CSE_PROGRAM)
    counters = {name: counter.value
                for name, counter in metrics.counters.items()}
    assert counters.get("cse.bag_hits", 0) >= 1
