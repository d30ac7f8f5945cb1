"""Materialized views and their incremental (semi-naive) maintenance.

Every test cross-checks the live, incrementally-maintained database
against a from-scratch rebuild — the same contract the mutation fuzzer
enforces at scale — and additionally asserts *which* refresh route ran
(``MaterializedView.delta_refreshes`` vs ``refreshes``), so a silent
fall-back to full recomputation fails the test that expected a delta.
"""

import numpy as np
import pytest

from repro import Database
from repro.engine import incremental
from repro.errors import SchemaError
from repro.fuzz.runner import _normalize_relation

EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")


def snapshot(db, name):
    return _normalize_relation(db.relation(name), db._dictionary)


def rebuild(relations, programs, name, **config):
    """Fresh database, loaded and queried from scratch."""
    db = Database(**config)
    for rel_name, (tuples, annotations) in relations.items():
        db.add_relation(rel_name, list(tuples),
                        annotations=list(annotations)
                        if annotations is not None else None,
                        arity=None if tuples else 2)
    for program in programs:
        db.query(program)
    return snapshot(db, name)


class TestMaterializeApi:
    def test_materialize_registers_and_returns_result(self):
        db = Database()
        db.add_relation("Edge", EDGES)
        result = db.materialize("T", TRIANGLES)
        assert result.scalar == 2.0  # (0,1,2) and (1,2,3)
        assert "T" in db.views
        assert db.views["T"].deps == frozenset({"Edge"})
        assert db.views["T"].delta_capable

    def test_materialize_head_must_match_name(self):
        db = Database()
        db.add_relation("Edge", EDGES)
        with pytest.raises(SchemaError):
            db.materialize("Wrong", TRIANGLES)

    def test_mutating_a_view_is_rejected(self):
        db = Database()
        db.add_relation("Edge", EDGES)
        db.materialize("T", TRIANGLES)
        with pytest.raises(SchemaError):
            db.append("T", [(9, 9)])
        with pytest.raises(SchemaError):
            db.delete("T", [(9, 9)])


class TestDeltaRoute:
    @pytest.fixture(autouse=True)
    def delta_route(self, monkeypatch):
        """These toy views cost less to re-run than to refresh term by
        term, so the cost routing would re-run most of them; what is
        checked here is the delta route's answers, so it is forced
        (as the fuzzer's ``forced-delta`` row forces it)."""
        monkeypatch.setattr(incremental, "delta_pays",
                            lambda full_ops, term_ops: True)

    def test_count_star_append_takes_delta_route(self):
        db = Database()
        db.add_relation("Edge", EDGES)
        db.materialize("T", TRIANGLES)
        db.append("Edge", [(2, 0), (3, 0), (0, 3)])
        edges = EDGES + [(2, 0), (3, 0), (0, 3)]
        assert snapshot(db, "T") == rebuild(
            {"Edge": (edges, None)}, [TRIANGLES], "T")
        view = db.views["T"]
        assert view.delta_refreshes == 1 and view.refreshes == 1

    def test_grouped_sum_append_takes_delta_route(self):
        rows = [(0, 1), (0, 2), (1, 2)]
        ann = [2.0, 3.0, 4.0]
        program = "S(a;w:float) :- R(a,b); w=<<SUM(b)>>."
        db = Database()
        db.add_relation("R", rows, annotations=ann)
        db.materialize("S", program)
        db.append("R", [(1, 5), (2, 7)], annotations=[6.0, 1.0])
        assert snapshot(db, "S") == rebuild(
            {"R": (rows + [(1, 5), (2, 7)], ann + [6.0, 1.0])},
            [program], "S")
        assert db.views["S"].delta_refreshes == 1

    def test_min_append_takes_delta_route(self):
        rows = [(0, 4), (0, 9), (1, 6)]
        program = "M(a;w:float) :- R(a,b); w=<<MIN(b)>>."
        db = Database()
        db.add_relation("R", rows)
        db.materialize("M", program)
        db.append("R", [(0, 2), (1, 8), (2, 3)])
        assert snapshot(db, "M") == rebuild(
            {"R": (rows + [(0, 2), (1, 8), (2, 3)], None)},
            [program], "M")
        assert db.views["M"].delta_refreshes == 1

    def test_set_semantics_append_takes_delta_route(self):
        program = "P(a,c) :- R(a,b),R(b,c)."
        db = Database()
        db.add_relation("R", EDGES)
        db.materialize("P", program)
        db.append("R", [(3, 4), (4, 0)])
        assert snapshot(db, "P") == rebuild(
            {"R": (EDGES + [(3, 4), (4, 0)], None)}, [program], "P")
        assert db.views["P"].delta_refreshes == 1

    def test_spurious_staleness_short_circuits(self):
        # Appending a duplicate changes nothing; the view must not be
        # marked stale at all (no refresh work).
        db = Database()
        db.add_relation("Edge", EDGES)
        db.materialize("T", TRIANGLES)
        assert db.append("Edge", [EDGES[0]]) == 0
        db.query("Probe(x) :- Edge(x,y).")
        assert db.views["T"].refreshes == 0

    def test_compiled_mode_delta_parity(self):
        db = Database(execution_mode="compiled")
        db.add_relation("Edge", EDGES)
        db.materialize("T", TRIANGLES)
        db.append("Edge", [(2, 0)])
        assert snapshot(db, "T") == rebuild(
            {"Edge": (EDGES + [(2, 0)], None)}, [TRIANGLES], "T",
            execution_mode="compiled")
        assert db.views["T"].delta_refreshes == 1


def random_edges(nodes, edges, seed, undirected=False):
    """``edges`` distinct random pairs of distinct nodes below ``nodes``
    (and their reverses when ``undirected``)."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, nodes, size=(edges * 2, 2))
    raw = np.unique(raw[raw[:, 0] != raw[:, 1]], axis=0)[:edges]
    pairs = [(int(u), int(v)) for u, v in raw]
    if undirected:
        pairs = sorted(set(pairs) | {(v, u) for u, v in pairs})
    return pairs


class TestRefreshRouting:
    """Where both routes are open, the one predicted cheaper runs: a
    rerun costs the view's last full run plus one execution's fixed
    cost, the delta route one fixed cost per term on top of its
    terms' work.  Either way the view answers like a fresh database."""

    def refreshed(self, edges, batch, **config):
        db = Database(**config)
        db.add_relation("Edge", edges)
        db.materialize("T", TRIANGLES)
        assert db.views["T"].full_ops > 0
        db.append("Edge", batch)
        assert snapshot(db, "T") == rebuild(
            {"Edge": (edges + batch, None)}, [TRIANGLES], "T", **config)
        return db.views["T"]

    def test_reruns_at_serve_mixed_scale(self):
        """2 000 rows and an 8-row batch: seven terms' fixed costs
        outweigh a rerun's join work."""
        edges = random_edges(300, 1000, 3, undirected=True)
        batch = [(0, 299), (299, 0), (1, 298), (298, 1), (2, 297),
                 (297, 2), (3, 296), (296, 3)]
        batch = [edge for edge in batch if edge not in set(edges)]
        view = self.refreshed(edges, batch, execution_mode="compiled")
        assert (view.refreshes, view.delta_refreshes) == (1, 0)

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_delta_where_the_rerun_dominates(self, mode):
        """7 000 rows and a 7-row batch (``benchmarks/floors.py``'s
        delta-vs-rebuild scale): the rerun's join work outweighs the
        terms' fixed costs on either engine."""
        edges = random_edges(300, 7000, 11)
        known = set(edges)
        batch = [(u, v) for u, v in random_edges(300, 40, 23)
                 if (u, v) not in known][:7]
        view = self.refreshed(edges, batch, execution_mode=mode)
        assert (view.refreshes, view.delta_refreshes) == (1, 1)

    def test_one_overhead_per_execution(self):
        """The prediction weighs lane ops alone, never a clock."""
        assert incremental.delta_pays(50000, [100.0] * 7)
        assert not incremental.delta_pays(4000, [100.0] * 7)
        overhead = incremental.EXECUTION_OVERHEAD
        assert not incremental.delta_pays(1000, [0.0, 0.0])
        assert incremental.delta_pays(overhead + 1, [0.0, 0.0])


class TestFullRouteFallbacks:
    def test_delete_falls_back_to_full_refresh(self):
        db = Database()
        db.add_relation("Edge", EDGES)
        db.materialize("T", TRIANGLES)
        db.delete("Edge", [(0, 2)])
        remaining = [e for e in EDGES if e != (0, 2)]
        assert snapshot(db, "T") == rebuild(
            {"Edge": (remaining, None)}, [TRIANGLES], "T")
        view = db.views["T"]
        assert view.refreshes == 1 and view.delta_refreshes == 0

    def test_annotation_rewrite_falls_back(self):
        rows = [(0, 1), (1, 2)]
        program = "S(;w:float) :- R(a,b); w=<<SUM(b)>>."
        db = Database()
        db.add_relation("R", rows, annotations=[1.0, 1.0])
        db.materialize("S", program)
        db.append("R", [(0, 1)], annotations=[5.0])  # rewrite
        assert snapshot(db, "S") == rebuild(
            {"R": (rows, [5.0, 1.0])}, [program], "S")
        view = db.views["S"]
        assert view.refreshes == 1 and view.delta_refreshes == 0

    def test_count_distinct_is_not_delta_capable(self):
        program = "C(a;w:long) :- R(a,b); w=<<COUNT(b)>>."
        rows = [(0, 1), (0, 2), (1, 1)]
        db = Database()
        db.add_relation("R", rows)
        db.materialize("C", program)
        assert not db.views["C"].delta_capable
        db.append("R", [(0, 2), (0, 3)])
        assert snapshot(db, "C") == rebuild(
            {"R": (rows + [(0, 3)], None)}, [program], "C")
        assert db.views["C"].delta_refreshes == 0

    def test_incremental_views_off_always_full_route(self):
        db = Database(incremental_views=False)
        db.add_relation("Edge", EDGES)
        db.materialize("T", TRIANGLES)
        db.append("Edge", [(2, 0)])
        assert snapshot(db, "T") == rebuild(
            {"Edge": (EDGES + [(2, 0)], None)}, [TRIANGLES], "T")
        view = db.views["T"]
        assert view.refreshes == 1 and view.delta_refreshes == 0


class TestViewChains:
    def test_view_over_view_refreshes_to_fixpoint(self):
        db = Database()
        db.add_relation("R", EDGES)
        db.materialize("P", "P(a,c) :- R(a,b),R(b,c).")
        db.materialize("Q", "Q(a) :- P(a,c).")
        db.append("R", [(3, 4), (4, 1)])
        edges = EDGES + [(3, 4), (4, 1)]
        expected = rebuild({"R": (edges, None)},
                           ["P(a,c) :- R(a,b),R(b,c).",
                            "Q(a) :- P(a,c)."], "Q")
        assert snapshot(db, "Q") == expected
        assert db.views["P"].refreshes >= 1
        assert db.views["Q"].refreshes >= 1

    def test_relation_access_triggers_lazy_refresh(self):
        db = Database()
        db.add_relation("Edge", EDGES)
        db.materialize("T", TRIANGLES)
        db.append("Edge", [(2, 0)])
        assert db.views["T"].stale
        db.relation("T")       # no query needed
        assert not db.views["T"].stale

    def test_repeated_mutations_accumulate_correctly(self):
        db = Database()
        db.add_relation("R", [(0, 1)])
        db.materialize("S", "S(;w:long) :- R(a,b); w=<<COUNT(*)>>.")
        live = {(0, 1)}
        for step in range(12):
            row = (step % 5, (step * 3) % 5)
            if step % 3 == 2:
                db.delete("R", [row])
                live.discard(row)
            else:
                db.append("R", [row])
                live.add(row)
            assert snapshot(db, "S") == rebuild(
                {"R": (sorted(live), None)},
                ["S(;w:long) :- R(a,b); w=<<COUNT(*)>>."], "S")
