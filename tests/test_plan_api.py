"""Tests for the compile-only planning API (Database.plan / explain)."""

import pytest

from repro import Database
from repro.engine import PhysicalPlan


@pytest.fixture
def db():
    database = Database()
    database.load_graph("Edge", [(0, 1), (1, 2), (0, 2), (2, 3)])
    return database


class TestPlanAPI:
    def test_plan_returns_physical_plan_without_executing(self, db):
        before = db.counter.total_ops
        plan = db.plan("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                       "w=<<COUNT(*)>>.")
        assert isinstance(plan, PhysicalPlan)
        assert db.counter.total_ops == before  # nothing ran
        assert "T" not in db.catalog           # nothing installed

    def test_plan_width_and_bags(self, db):
        plan = db.plan(
            "B(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,p),"
            "Edge(p,q),Edge(q,r),Edge(p,r); w=<<COUNT(*)>>.")
        assert plan.ghd.width() == pytest.approx(1.5)
        assert len(plan.bags) == 3
        assert plan.aggregate_mode

    def test_plan_respects_ablation(self, db):
        flat = Database(use_ghd=False)
        flat.load_graph("Edge", [(0, 1), (1, 2), (0, 2), (2, 3)])
        plan = flat.plan(
            "B(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,p),"
            "Edge(p,q),Edge(q,r),Edge(p,r); w=<<COUNT(*)>>.")
        assert len(plan.bags) == 1
        assert plan.ghd.width() == pytest.approx(3.0)

    def test_explain_is_compile_only(self, db):
        text = db.explain("Q(x,y) :- Edge(x,y),Edge(y,q).")
        assert "GHD" in text and "physical bags" in text
        assert "Q" not in db.catalog

    def test_plan_of_materialize_rule(self, db):
        plan = db.plan("Q(x,z) :- Edge(x,y),Edge(y,z).")
        assert not plan.aggregate_mode
        # Each bag retains its join keys for the (potential) top-down.
        for bag in plan.bags:
            assert set(bag.out_attrs) <= set(bag.chi)

    def test_plan_unknown_relation_raises(self, db):
        from repro import UnknownRelationError
        with pytest.raises(UnknownRelationError):
            db.plan("Q(x) :- Missing(x,y).")


class TestRecursivePlans:
    """``plan``/``explain`` describe the round the recursion driver
    runs, not the rule as written."""

    def test_sssp_plan_is_the_order_that_ran(self):
        from repro.graphs.analytics import sssp_program
        database = Database(execution_mode="compiled")
        database.load_graph("Edge", [(0, 1), (1, 2), (0, 2), (2, 3)])
        text = sssp_program(0)
        database.query(text)            # installs the base case too
        ran = database._executor.last_plan
        planned = database.plan(text)
        assert [bag.eval_order for bag in planned.bags] \
            == [bag.eval_order for bag in ran.bags] == [("w", "x")]
        assert [bag.out_attrs for bag in planned.bags] \
            == [bag.out_attrs for bag in ran.bags] == [("x",)]
        assert "eval=(w,x) out=(x)" in database.explain(text)

    def test_the_oracle_stays_output_first(self):
        from repro.graphs.analytics import sssp_program
        database = Database(execution_mode="interpreted")
        database.load_graph("Edge", [(0, 1), (1, 2), (0, 2), (2, 3)])
        text = sssp_program(0)
        database.query(text)
        assert database.plan(text).bags[0].eval_order \
            == database._executor.last_plan.bags[0].eval_order \
            == ("x", "w")

    def test_fixed_iteration_rounds_have_no_delta(self):
        from repro.graphs.analytics import pagerank_program
        database = Database(execution_mode="compiled")
        database.load_graph("Edge", [(0, 1), (1, 2), (0, 2), (2, 3)])
        text = pagerank_program(iterations=2)
        database.query(text)
        assert [bag.eval_order for bag in database.plan(text).bags] \
            == [bag.eval_order
                for bag in database._executor.last_plan.bags] \
            == [("x", "z")]
