"""The wire answers what the database answers: joins across loaders meet
equal values, and a reply decodes exactly as ``Result.tuples()`` does."""

import pytest

from repro import Database
from repro.serve import QueryService, ServeClient
from repro.serve.protocol import payload_to_outcome


@pytest.fixture
def served():
    db = Database()
    db.load_graph("Edge", [(1, 2), (2, 3), (3, 4), (3, 5)])
    db.add_relation("S", [("a",), ("b",)])
    db.add_encoded("R", [[0], [1]])
    service = QueryService(db).start()
    with ServeClient(port=service.port) as client:
        yield db, client
    service.stop()


def test_added_relation_joins_the_served_graph_on_values(served):
    _, client = served
    assert client.add_relation("Hub", [(5,)])["status"] == "ok"
    reply = client.query("In(x) :- Edge(x,z),Hub(z).", check=True)
    assert payload_to_outcome(reply["result"]) == ("set", {(3,)})


def test_raw_keys_travel_as_raw_keys(served):
    db, client = served
    text = "Q(x) :- R(x)."
    reply = client.query(text, check=True)
    assert payload_to_outcome(reply["result"]) \
        == ("set", set(db.query(text).tuples())) == ("set", {(0,), (1,)})
