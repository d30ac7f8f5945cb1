"""Guard-rail tests for the recursion driver."""

import numpy as np
import pytest

from repro import Database
from repro.engine import EngineConfig
from repro.engine.oracle import executor_for
from repro.engine.recursion import execute_recursive
from repro.errors import ExecutionError
from repro.query import parse_rule
from repro.storage import Relation


class TestConvergenceGuards:
    def test_union_round_cap_raises(self):
        """A rule that grows forever must hit the round cap, not spin."""
        catalog = {
            "Succ": Relation("Succ", np.stack(
                [np.arange(500, dtype=np.uint32),
                 np.arange(1, 501, dtype=np.uint32)], axis=1)),
            "Grow": Relation("Grow", np.asarray([[0, 0]],
                                                dtype=np.uint32)),
        }
        executor = executor_for(catalog, EngineConfig())
        rule = parse_rule("Grow(x,y)* :- Grow(x,z),Succ(z,y).")
        with pytest.raises(ExecutionError):
            execute_recursive(rule, executor, max_rounds=5)

    def test_seminaive_converges_on_cycles(self):
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1), (1, 2), (2, 0)], undirected=True)
        distances = db.query("""
            S(x;d:int) :- Edge(0,x); d=1.
            S(x;d:int)* :- Edge(w,x),S(w); d=<<MIN(w)>>+1.
        """).to_dict()
        assert distances == {1: 1, 2: 1, 0: 2}

    def test_zero_iteration_replace(self):
        """``*[i=0]`` leaves the base case untouched."""
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1)], undirected=True)
        db.query("V(x;a:float) :- Edge(0,x); a=5.")
        result = db.query(
            "V(x;a:float)*[i=0] :- Edge(w,x),V(w); a=2*<<SUM(w)>>.")
        assert result.to_dict() == {1: 5.0}

    def test_replace_mode_overwrites_not_unions(self):
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1), (1, 2)], undirected=True)
        db.query("V(x;a:float) :- Edge(0,x); a=1.")
        # one replace round: V becomes {x adjacent to old V keys}
        result = db.query(
            "V(x;a:float)*[i=1] :- Edge(w,x),V(w); a=<<SUM(w)>>.")
        # old V = {1}; neighbors of 1 = {0, 2}
        assert set(result.to_dict()) == {0, 2}

    def test_catalog_restored_after_seminaive(self):
        """The delta substitution must not leak into the catalog on
        completion — the final full relation is installed."""
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1), (1, 2)], undirected=True)
        db.query("""
            S(x;d:int) :- Edge(0,x); d=1.
            S(x;d:int)* :- Edge(w,x),S(w); d=<<MIN(w)>>+1.
        """)
        stored = db.relation("S")
        assert stored.cardinality == 3  # all reachable, not a delta
