"""Pinned plans: a warm execution goes straight to the rule tier.

A rule object the default engine ran before carries its rule-tier key
(:class:`~repro.engine.plan_cache.RulePin`), so running it again
probes the plan cache without re-running the optimizer.  These tests
hold the pin to what the optimizer would have found: it leads to a
plan only while that plan is still the right one, and otherwise the
rule is optimized (and, where the plan changed, compiled) afresh.
Every answer is checked against a fresh :class:`Database`.
"""

import pytest

from repro import Database
from repro.engine import executor, incremental
from repro.graphs import TRIANGLE_COUNT

EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]
ROWS = [("a", 1), ("b", 2), ("c", 2)]

#: A selection on ``"d"``, which ``R`` holds only after an append.
SELECT_D = 'S(y) :- R("d",y).'
#: The same constant inside a join: ``R``'s partners of ``d``'s values.
JOIN_D = 'J(x) :- R(x,y),R("d",y).'


class Optimized:
    """``(catalog, head name)`` of every rule the executor hands to
    ``optimize_rule``; :meth:`on` reads one database's since
    :meth:`reset`."""

    def __init__(self):
        self.calls = []

    def on(self, db):
        return [head for catalog, head in self.calls
                if catalog is db.catalog]

    def reset(self):
        del self.calls[:]


@pytest.fixture
def optimized(monkeypatch):
    spy = Optimized()
    optimize = executor.optimize_rule

    def counted(rule, catalog, *args, **kwargs):
        spy.calls.append((catalog, rule.head_name))
        return optimize(rule, catalog, *args, **kwargs)
    monkeypatch.setattr(executor, "optimize_rule", counted)
    return spy


def fresh(relations, text):
    """``text``'s decoded answer on a database loaded from scratch."""
    db = Database(execution_mode="compiled")
    for name, rows in relations.items():
        db.add_relation(name, rows)
    return sorted(db.query(text).tuples())


def test_warm_execution_calls_the_optimizer_zero_times(optimized):
    db = Database(execution_mode="compiled")
    db.load_graph("Edge", EDGES)
    first = db.query(TRIANGLE_COUNT).scalar
    assert optimized.on(db) == ["TriangleCount"]
    optimized.reset()
    assert db.query(TRIANGLE_COUNT).scalar == first
    assert optimized.on(db) == []
    stats = db.last_stats
    assert (stats.plan_cache_hits, stats.plan_cache_misses,
            stats.ghd_builds) == (1, 0, 0)


def test_a_write_within_the_band_keeps_the_pin(optimized):
    db = Database(execution_mode="compiled")
    db.add_relation("R", EDGES)
    text = "P(;w:long) :- R(x,y),R(y,z); w=<<COUNT(*)>>."
    db.query(text)
    optimized.reset()
    db.append("R", [(3, 0)])        # 5 -> 6 rows: the band holds
    assert db.query(text).scalar == fresh_count(EDGES + [(3, 0)], text)
    assert optimized.on(db) == []
    assert db.last_stats.plan_cache_hits == 1


def fresh_count(edges, text):
    db = Database(execution_mode="compiled")
    db.add_relation("R", edges)
    return db.query(text).scalar


def test_absent_constant_answers_like_a_fresh_database(optimized):
    """``"d"`` encodes through ``R``'s dictionary: absent, the selection
    is statically empty; the append that adds it grows the dictionary,
    which voids the pin, so the rule is optimized afresh."""
    db = Database(execution_mode="compiled")
    db.add_relation("R", ROWS)
    for text in (SELECT_D, JOIN_D):
        assert db.query(text).tuples() == []
        assert db.query(text).tuples() == []    # pinned, still empty
    optimized.reset()
    db.append("R", [("d", 2)])
    rows = ROWS + [("d", 2)]
    for text in (SELECT_D, JOIN_D):
        assert sorted(db.query(text).tuples()) == fresh({"R": rows}, text)
        assert sorted(db.query(text).tuples()) == fresh({"R": rows}, text)
    assert sorted(db.query(JOIN_D).tuples()) == [("b",), ("c",), ("d",)]
    assert optimized.on(db) == ["S", "J"]      # once each, then pinned again


def test_dictionary_growth_elsewhere_keeps_answers(optimized):
    """``add_relation`` shares one dictionary: a new relation adding
    ``"d"`` voids the pin though ``R`` never changed."""
    db = Database(execution_mode="compiled")
    db.add_relation("R", ROWS)
    assert db.query(SELECT_D).tuples() == []
    optimized.reset()
    db.add_relation("Other", [("d", 9)])
    assert db.query(SELECT_D).tuples() == []
    assert optimized.on(db) == ["S"]


def test_reloaded_graph_rebinds_its_pinned_plan(optimized):
    """A reload encodes through the database's one dictionary, so its
    ids mean what the old relation's did: the pinned plan re-binds to
    it, as a re-derivation's does, and nothing compiles again."""
    db = Database(execution_mode="compiled")
    db.load_graph("Edge", EDGES)
    db.query(TRIANGLE_COUNT)
    optimized.reset()
    more = EDGES + [(0, 3)]
    db.load_graph("Edge", more)
    expected = Database(execution_mode="compiled")
    expected.load_graph("Edge", more)
    assert db.query(TRIANGLE_COUNT).scalar \
        == expected.query(TRIANGLE_COUNT).scalar
    stats = db.last_stats
    assert (stats.plan_cache_hits, stats.plan_cache_misses,
            stats.ghd_builds) == (1, 0, 0)
    assert optimized.on(db) == []


def test_band_move_recompiles(optimized):
    db = Database(execution_mode="compiled")
    db.add_relation("R", EDGES)
    text = "P(;w:long) :- R(x,y),R(y,z); w=<<COUNT(*)>>."
    db.query(text)
    optimized.reset()
    grown = EDGES + [(3, 4), (4, 5), (5, 0)]   # 5 -> 8 rows: 3 -> 4 bits
    db.append("R", grown[len(EDGES):])
    assert db.query(text).scalar == fresh_count(grown, text)
    stats = db.last_stats
    assert (stats.plan_cache_hits, stats.plan_cache_misses,
            stats.ghd_builds) == (0, 1, 1)
    assert optimized.on(db) == ["P"]


def test_evicted_plan_is_optimized_again(optimized):
    db = Database(execution_mode="compiled")
    db.load_graph("Edge", EDGES)
    first = db.query(TRIANGLE_COUNT).scalar
    for key in list(db._plan_cache._rules):
        db._plan_cache.evict_rule(key)
    optimized.reset()
    assert db.query(TRIANGLE_COUNT).scalar == first
    assert optimized.on(db) == ["TriangleCount"]
    assert db.last_stats.plan_cache_misses == 1


def test_warm_delta_refresh_compiles_nothing(monkeypatch, optimized):
    """A view's Δ-term rules are built once, at ``materialize``: from
    the second delta refresh on, every term runs its pinned plan."""
    monkeypatch.setattr(incremental, "delta_pays",
                        lambda full_ops, term_ops: True)
    edges = [(i, j) for i in range(12) for j in range(12) if i < j]
    db = Database(execution_mode="compiled")
    db.add_relation("Edge", edges)
    db.materialize("T", "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                        "w=<<COUNT(*)>>.")
    view = db.views["T"]
    batches = [[(12, 13)], [(13, 14)], [(12, 14)]]
    db.append("Edge", batches[0])
    db.relation("T")
    optimized.reset()
    for batch in batches[1:]:
        db.append("Edge", batch)
        db.relation("T")
        assert db.last_stats.plan_cache_misses == 0
    assert optimized.on(db) == []
    assert view.delta_refreshes == 3
    edges += [edge for batch in batches for edge in batch]
    assert db.relation("T").scalar_value == fresh_count(
        edges, "P(;w:long) :- R(x,y),R(y,z),R(x,z); w=<<COUNT(*)>>.")
