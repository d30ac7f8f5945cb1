"""EXPLAIN ANALYZE: plan rendering with actuals and cost-model error."""

import pytest

import repro.sets.cost
from repro import Database
from repro.graphs.patterns import BARBELL_COUNT, TRIANGLE_COUNT
from repro.obs.explain import predict_bag_ops

from tests.conftest import random_undirected_edges


def database(mode="interpreted", **overrides):
    db = Database(execution_mode=mode, **overrides)
    db.load_graph("Edge", random_undirected_edges(30, 90, seed=3),
                  prune=True)
    return db


class TestSingleBag:
    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_triangle_report_structure(self, mode):
        db = database(mode)
        report = db.explain_analyze(TRIANGLE_COUNT)
        assert report.startswith("EXPLAIN ANALYZE")
        assert "execution mode: %s" % mode in report
        assert "phases:" in report
        assert "GHD plan" in report
        assert "bag 0:" in report
        assert "layouts:" in report
        assert "actual:" in report
        assert "predicted:" in report and "repro.sets.cost" in report
        assert "cost-model error:" in report
        assert "result: 1 tuple(s)" in report

    def test_compiled_report_shows_pipeline_counters(self):
        db = database("compiled")
        report = db.explain_analyze(TRIANGLE_COUNT)
        assert "compiled pipeline:" in report
        assert "codegen" in report

    def test_result_still_installed(self):
        db = database()
        db.explain_analyze(TRIANGLE_COUNT)
        assert "TriangleCount" in db.catalog


class TestMultiBag:
    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_barbell_reports_every_bag(self, mode):
        db = database(mode)
        report = db.explain_analyze(BARBELL_COUNT)
        assert "bag 0:" in report
        assert "bag 1:" in report
        assert "bag 2:" in report
        # Each executed bag carries its own actuals line.
        assert report.count("actual:") >= 2


class TestPredictionProvenance:
    def test_prediction_comes_from_sets_cost_module(self, monkeypatch):
        """The predicted ops must flow through
        repro.sets.cost.predict_intersection_ops, not an ad-hoc copy."""
        monkeypatch.setattr(
            repro.sets.cost, "predict_intersection_ops",
            lambda cards, simd=True, crossover=None: 424242)
        db = database()
        report = db.explain_analyze(TRIANGLE_COUNT)
        (line,) = [l for l in report.splitlines() if "predicted:" in l]
        predicted = int(line.split("predicted:")[1].split()[0])
        # The per-level predictions are summed weighted by prefix
        # counts, so the sentinel must divide the reported total.
        assert predicted > 0
        assert predicted % 424242 == 0

    def test_predict_bag_ops_uses_profiles(self):
        profiles = [
            {"name": "Edge", "variables": ("x", "y"), "root_card": 10,
             "cardinality": 40, "kind": "uint"},
            {"name": "Edge", "variables": ("y", "z"), "root_card": 10,
             "cardinality": 40, "kind": "uint"},
            {"name": "Edge", "variables": ("x", "z"), "root_card": 10,
             "cardinality": 40, "kind": "uint"},
        ]
        predicted = predict_bag_ops(("x", "y", "z"), profiles, simd=True)
        assert predicted > 0

    def test_error_ratio_is_computed(self):
        db = database()
        report = db.explain_analyze(TRIANGLE_COUNT)
        (line,) = [l for l in report.splitlines()
                   if "cost-model error:" in l]
        ratio = float(line.split(":")[1].strip().split("x")[0])
        assert ratio > 0


class TestCostPrediction:
    def test_pair_prediction_formulas(self):
        cost = repro.sets.cost
        # scalar merge: small + large
        assert cost.predict_pair_ops(10, 20, simd=False) == 30
        # scalar galloping beyond the crossover
        large = 10 * cost.GALLOPING_CROSSOVER + 1
        expected = 10 * cost._log2_ceil(large)
        assert cost.predict_pair_ops(10, large, simd=False) == expected
        # empty side costs nothing
        assert cost.predict_pair_ops(0, 50) == 0

    def test_intersection_prediction_folds_left(self):
        cost = repro.sets.cost
        assert cost.predict_intersection_ops((8,)) == 0
        pair = cost.predict_pair_ops(8, 16)
        assert cost.predict_intersection_ops((16, 8)) == pair
        three = cost.predict_intersection_ops((16, 8, 64))
        assert three >= pair


class TestRecursionRounds:
    """A recursion's plan is its last round's; the report says so and
    adds one row per round, whose lane ops are the query's."""

    @pytest.mark.parametrize("program", ["sssp", "pagerank"])
    def test_round_table_sums_to_the_query_charge(self, program):
        from repro.graphs import (highest_degree_node, pagerank_program,
                                  sssp_program)
        edges = random_undirected_edges(30, 90, seed=3)
        db = Database(execution_mode="compiled")
        db.load_graph("Edge", edges)
        text = sssp_program(highest_degree_node(edges)) \
            if program == "sssp" else pagerank_program(iterations=4)
        before = db.counter.total_ops
        report = db.explain_analyze(text)
        rounds = db.last_stats.rounds
        assert len(rounds) == db.last_stats.recursion_rounds >= 2
        lines = report.splitlines()
        table = lines.index(next(line for line in lines
                                 if line.split()[:2] == ["round", "delta"]))
        rows = [line.split() for line in lines[table + 1:table + 1
                                               + len(rounds)]]
        assert [int(row[0]) for row in rows] == list(range(1, len(rounds)
                                                           + 1))
        assert sum(int(row[4]) for row in rows) \
            == sum(r.lane_ops for r in rounds)
        total = lines[table + 1 + len(rounds)].split()
        assert total[0] == "total"
        if program == "sssp":       # the base rule charges nothing
            assert int(total[1]) == db.counter.total_ops - before
            assert [row[3] for row in rows][-1] == "0"
        else:
            assert {row[3] for row in rows} == {"-"}
        assert "actual (last of %d rounds):" % len(rounds) in report
        # a later non-recursive rule's plan is not labelled
        report = db.explain_analyze(TRIANGLE_COUNT)
        assert "last of" not in report and "delta in" not in report

    def test_long_runs_show_both_ends(self):
        db = Database(execution_mode="compiled", ordering="identity")
        db.load_graph("Edge", [(i, i + 1) for i in range(40)],
                      undirected=False)
        report = db.explain_analyze(
            "S(x;y:int) :- Edge(0,x); y=1.\n"
            "S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.")
        assert "(20 rounds not shown)" in report
        table = report.split("lane ops       time\n")[1].splitlines()
        numbers = [line.split()[0] for line in table
                   if line.split()[0].isdigit()]
        assert numbers == [str(n) for n in list(range(1, 11))
                           + list(range(31, 41))]
