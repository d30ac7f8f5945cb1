"""The program-identity memo across writes.

A program's identity reads the catalog only through name resolution
and constant encodings, so the daemon keeps memoized identities across
a write unless the write grew one of the relation's dictionaries.  The
hazard that rule exists for: a constant absent from the dictionary
encodes as ``~``, so two programs differing only in absent constants
share one cache key — until an append gives one of them an encoding.
"""

import pytest

from repro import Database
from repro.serve import QueryService, ServeClient
from repro.serve import server as server_module

#: Neither 7 nor 8 is a node of the graph below.
HOP_7 = "Hop(;w:long) :- Edge(7,y),Edge(y,z); w=<<COUNT(*)>>."
HOP_8 = "Hop(;w:long) :- Edge(8,y),Edge(y,z); w=<<COUNT(*)>>."
HOP_0 = "Hop(;w:long) :- Edge(0,y),Edge(y,z); w=<<COUNT(*)>>."


@pytest.fixture
def service():
    db = Database()
    db.load_graph("Edge", [(0, 1), (0, 2), (1, 3)])  # nodes 0-3
    svc = QueryService(db).start()
    yield svc
    svc.stop()


@pytest.fixture
def identity_calls(monkeypatch):
    calls = []
    original = server_module.program_identity

    def counting(db, text):
        calls.append(text)
        return original(db, text)
    monkeypatch.setattr(server_module, "program_identity", counting)
    return calls


def test_new_constant_separates_programs_that_shared_a_key(service):
    with ServeClient(port=service.port) as client:
        assert client.query(HOP_7)["result"]["value"] == 0.0
        shared = client.query(HOP_8)
        assert shared["result"]["value"] == 0.0
        assert shared["cached"] is True  # 7 and 8 both encode as "~"
        epoch = service._identity_epoch
        assert client.append("Edge", [(7, 0), (0, 7)])["changed"] == 2
        assert service._identity_epoch == epoch + 1
        # 7 -> 0 -> {1, 2, 7}
        assert client.query(HOP_7)["result"]["value"] == 3.0
        reply = client.query(HOP_8)
        assert reply["result"]["value"] == 0.0
        assert reply["cached"] is False


def test_write_among_existing_nodes_keeps_identities(service,
                                                     identity_calls):
    with ServeClient(port=service.port) as client:
        # 0 -> {1, 2}, 1 -> {0, 3}, 2 -> {0}
        assert client.query(HOP_0)["result"]["value"] == 3.0
        assert client.query(HOP_0)["cached"] is True
        assert identity_calls == [HOP_0]
        epoch = service._identity_epoch
        assert client.append("Edge", [(2, 3), (3, 2)])["changed"] == 2
        reply = client.query(HOP_0)  # 2 -> {0, 3}
        assert reply["result"]["value"] == 4.0
        assert reply["cached"] is False
        assert client.delete("Edge", [(1, 3)])["changed"] == 1
        assert client.query(HOP_0)["result"]["value"] == 3.0  # 1 -> {0}
        assert service._identity_epoch == epoch
        assert identity_calls == [HOP_0]


def test_rejected_append_that_grew_a_dictionary_bumps_the_epoch(service):
    with ServeClient(port=service.port) as client:
        epoch = service._identity_epoch
        # the first row's values are encoded before the second row's
        # arity is rejected
        reply = client.append("Edge", [(9, 0), (1, 2, 3)])
        assert reply["status"] == "error"
        assert service._identity_epoch == epoch + 1
        reply = client.append("Edge", [(0, 1), (1, 2, 3)])
        assert reply["status"] == "error"
        assert service._identity_epoch == epoch + 1
