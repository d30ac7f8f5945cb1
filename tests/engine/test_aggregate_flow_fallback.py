"""Tests for the aggregate-mode GHD fallback.

Early aggregation requires each bag's head attributes to be visible to
its parent; when a decomposition violates that, the executor must fall
back to the (always correct) single-node plan rather than compute a
wrong answer.  These tests pick queries whose natural GHDs split the
head across bags and validate against brute force.
"""

import pytest

from repro import Database
from repro.fuzz.oracle import evaluate_program
from repro.query.parser import parse
from tests.conftest import random_undirected_edges


@pytest.fixture(scope="module")
def db():
    database = Database(ordering="identity")
    database.load_graph("Edge", random_undirected_edges(11, 22, seed=3),
                        undirected=True)
    return database


def edge_tuples(db):
    """Edge tuples in the *decoded* domain, matching Result.to_dict."""
    return list(db.relation("Edge").decoded_tuples())


def brute_force(text, base):
    """``Q``'s ``{head: value}`` for ``text`` over ``base`` by brute
    force."""
    return evaluate_program(base, parse(text).rules)["Q"][1]


class TestHeadSpansBags:
    def test_path_endpoints_count(self, db):
        """Head (a, d) of a 3-path: a and d live in different bags of
        the min-width GHD."""
        text = ("Q(a,d;c:long) :- Edge(a,b),Edge(b,c),Edge(c,d); "
                "c=<<COUNT(*)>>.")
        result = db.query(text)
        expected = brute_force(text, {"Edge": (edge_tuples(db), None)})
        got = {k: v for k, v in result.to_dict().items()}
        assert got == expected

    def test_lollipop_tail_and_triangle_vertex(self, db):
        """Head mixes a triangle attribute and the tail attribute."""
        text = ("Q(y,u;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
                "Edge(x,u); c=<<COUNT(*)>>.")
        result = db.query(text)
        expected = brute_force(text, {"Edge": (edge_tuples(db), None)})
        assert result.to_dict() == expected

    def test_sum_across_bags(self, db):
        """Same shape with SUM over annotated edges."""
        import numpy as np
        weighted = Database(ordering="identity")
        tuples = edge_tuples(db)
        annotations = [(a * 7 + b) % 5 + 1.0 for a, b in tuples]
        weighted.add_encoded(
            "W", np.asarray(tuples, dtype=np.uint32),
            annotations=np.asarray(annotations))
        table = {t: x for t, x in zip(tuples, annotations)}
        text = "Q(a,c;s:float) :- W(a,b),W(b,c); s=<<SUM(b)>>."
        result = weighted.query(text)
        expected = brute_force(text, {"W": (tuples, table)})
        got = result.to_dict()
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)
