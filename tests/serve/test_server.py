"""Query-service basics: protocol, result cache, invalidation, ops.

The concurrency harness lives in ``test_concurrency.py`` and the
timeout/fault-injection cases in ``test_faults.py``; this file covers
the single-client contract — wire framing, every op, and the result
cache's hit/miss/invalidate semantics (the acceptance criterion:
mutations invalidate exactly the entries reading the mutated
relation).
"""

import pytest

from repro import Database
from repro.serve import QueryService, ServeClient, ResultCache, \
    program_identity
from repro.serve.protocol import (decode_message, encode_message,
                                  payload_from_relation,
                                  payload_to_outcome)

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
EDGE_PAIRS = "P(x,y) :- Edge(x,y)."
TAG_ROWS = "G(x) :- Tag(x)."


@pytest.fixture
def service():
    db = Database()
    db.load_graph("Edge", [(0, 1), (1, 2), (0, 2), (2, 3)])
    db.add_relation("Tag", [(1,), (2,)])
    svc = QueryService(db, debug=True).start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    with ServeClient(port=service.port) as c:
        yield c


# -- protocol ---------------------------------------------------------------


def test_encode_decode_round_trip():
    message = {"op": "query", "text": "T(x) :- E(x).", "id": 7}
    assert decode_message(encode_message(message)) == message


def test_decode_rejects_non_objects():
    with pytest.raises(ValueError):
        decode_message(b"[1,2,3]\n")
    with pytest.raises(ValueError):
        decode_message(b"not json\n")


def test_payload_round_trip(service):
    relation = service.db.relation("Edge")
    payload = payload_from_relation(relation, service.db._dictionary)
    kind, value = payload_to_outcome(payload)
    assert kind == "set"
    assert (0, 1) in value and (1, 0) in value


def test_bad_request_line_is_answered_not_fatal(client):
    client._sock.sendall(b"this is not json\n")
    reply = decode_message(client._reader.readline())
    assert reply["status"] == "error"
    assert reply["code"] == "bad_request"
    # The connection is still usable.
    assert client.ping()["status"] == "ok"


def test_unknown_op(client):
    reply = client.call("frobnicate")
    assert reply["status"] == "error"
    assert reply["code"] == "unknown_op"


def test_request_id_is_echoed(client):
    reply = client.call("ping", id=42)
    assert reply["id"] == 42


# -- basic ops --------------------------------------------------------------


def test_query_scalar(client):
    reply = client.query(TRIANGLES)
    assert reply["status"] == "ok"
    assert reply["result"] == {"kind": "scalar", "value": 6.0}
    assert reply["cached"] is False


def test_query_set(client):
    reply = client.query(EDGE_PAIRS)
    assert reply["status"] == "ok"
    kind, rows = payload_to_outcome(reply["result"])
    assert kind == "set"
    assert rows == frozenset([(0, 1), (1, 0), (1, 2), (2, 1),
                              (0, 2), (2, 0), (2, 3), (3, 2)])


def test_query_error_is_structured(client):
    reply = client.query("T(x) :- Missing(x).")
    assert reply["status"] == "error"
    assert reply["code"] == "query_error"
    assert reply["error_class"] == "UnknownRelationError"
    assert "Missing" in reply["error"]


def test_status_op(client):
    status = client.status()
    assert status["protocol_version"] == 1
    assert "Edge" in status["relations"]
    assert status["draining"] is False
    assert status["result_cache"]["capacity"] == 256


def test_mutations_and_relation_fetch(client):
    assert client.append("Tag", [(9,)])["changed"] == 1
    assert client.append("Tag", [(9,)])["changed"] == 0  # idempotent
    assert client.delete("Tag", [(1,)])["changed"] == 1
    kind, rows = payload_to_outcome(client.relation("Tag")["result"])
    assert rows == frozenset([(2,), (9,)])


def test_add_relation_and_query_it(client):
    client.add_relation("Score", [(1, 10), (2, 20)])
    reply = client.query("S(x,y) :- Score(x,y).")
    kind, rows = payload_to_outcome(reply["result"])
    assert rows == frozenset([(1, 10), (2, 20)])


def test_materialize_and_view_refresh(client):
    assert client.materialize("Deg", "Deg(x;d:long) :- Edge(x,y); "
                              "d=<<COUNT(y)>>.")["status"] == "ok"
    before = payload_to_outcome(client.relation("Deg")["result"])[1]
    assert before[(3,)] == 1.0
    client.append("Edge", [(3, 0), (0, 3)])
    after = payload_to_outcome(client.relation("Deg")["result"])[1]
    assert after[(3,)] == 2.0


def test_mutating_a_view_is_rejected(client):
    client.materialize("Deg", "Deg(x;d:long) :- Edge(x,y); "
                       "d=<<COUNT(y)>>.")
    reply = client.append("Deg", [(5, 5)])
    assert reply["status"] == "error"
    assert reply["error_class"] == "SchemaError"


# -- result cache -----------------------------------------------------------


def test_repeated_query_hits_cache(client):
    first = client.query(TRIANGLES)
    second = client.query(TRIANGLES)
    assert first["cached"] is False
    assert second["cached"] is True
    assert second["result"] == first["result"]


def test_unrelated_mutation_keeps_hits(client, service):
    client.query(TRIANGLES)
    assert client.query(TRIANGLES)["cached"] is True
    client.append("Tag", [(7,)])  # Tag is not in the triangle read set
    assert client.query(TRIANGLES)["cached"] is True
    assert service.cache.snapshot()["invalidations"] == 0


def test_related_mutation_invalidates(client):
    client.query(TRIANGLES)
    assert client.query(TRIANGLES)["cached"] is True
    client.append("Edge", [(1, 3), (3, 1)])  # closes triangle 1-2-3
    reply = client.query(TRIANGLES)
    assert reply["cached"] is False
    assert reply["result"]["value"] == 12.0  # 2 triangles, 6 orderings
    assert client.query(TRIANGLES)["cached"] is True


def test_noop_mutation_keeps_hits(client):
    client.query(TRIANGLES)
    assert client.append("Edge", [(0, 1)])["changed"] == 0
    assert client.query(TRIANGLES)["cached"] is True


def test_delete_invalidates(client):
    assert client.query(TRIANGLES)["result"]["value"] == 6.0
    client.delete("Edge", [(2, 3), (3, 2)])
    reply = client.query(TRIANGLES)
    assert reply["cached"] is False
    assert reply["result"]["value"] == 6.0


def test_materialize_clears_cache(client, service):
    client.query(TRIANGLES)
    client.materialize("Deg", "Deg(x;d:long) :- Edge(x,y); "
                       "d=<<COUNT(y)>>.")
    assert len(service.cache) == 0
    assert client.query(TRIANGLES)["cached"] is False


def test_query_reading_installed_head_invalidates_on_reinstall(client):
    # P is installed by one program and read by another; re-executing
    # the installer bumps P's epoch, so the reader's entry is evicted.
    client.query(EDGE_PAIRS)
    reader = "R(;w:long) :- P(x,y); w=<<COUNT(*)>>."
    assert client.query(reader)["result"]["value"] == 8.0
    assert client.query(reader)["cached"] is True
    client.append("Edge", [(3, 4), (4, 3)])
    client.query(EDGE_PAIRS)  # re-installs P with the new edges
    reply = client.query(reader)
    assert reply["cached"] is False
    assert reply["result"]["value"] == 10.0


def test_cache_survives_across_connections(service):
    with ServeClient(port=service.port) as a:
        a.query(TRIANGLES)
    with ServeClient(port=service.port) as b:
        assert b.query(TRIANGLES)["cached"] is True


# -- program identity -------------------------------------------------------


def test_identity_is_alpha_invariant(service):
    db = service.db
    key_a, reads_a, heads_a = program_identity(db, TRIANGLES)
    renamed = ("T(;w:long) :- Edge(a,b),Edge(b,c),Edge(a,c); "
               "w=<<COUNT(*)>>.")
    key_b, reads_b, heads_b = program_identity(db, renamed)
    assert key_a == key_b
    assert reads_a == reads_b == frozenset(["Edge"])
    assert heads_a == heads_b == ("T",)


def test_identity_differs_across_programs(service):
    db = service.db
    assert program_identity(db, TRIANGLES)[0] \
        != program_identity(db, EDGE_PAIRS)[0]


def test_identity_read_set_expands_views(client, service):
    client.materialize("Deg", "Deg(x;d:long) :- Edge(x,y); "
                       "d=<<COUNT(y)>>.")
    _, reads, _ = program_identity(service.db,
                                   "H(x) :- Deg(x), Tag(x).")
    assert "Deg" in reads
    assert "Edge" in reads  # the view's base rides along
    assert "Tag" in reads


# -- ResultCache unit behavior ----------------------------------------------


def test_result_cache_stamp_mismatch_evicts():
    cache = ResultCache(capacity=4)
    cache.store("k", {"kind": "scalar", "value": 1.0}, 1, {"Edge": 0})
    assert cache.lookup("k", {"Edge": 0}) is not None
    assert cache.lookup("k", {"Edge": 1}) is None  # stale -> evicted
    assert cache.lookup("k", {"Edge": 0}) is None  # really gone
    assert cache.invalidations == 1


def test_result_cache_lru_bound():
    cache = ResultCache(capacity=2)
    for index in range(3):
        cache.store("k%d" % index, {}, 0, {})
    assert len(cache) == 2
    assert cache.lookup("k0", {}) is None  # oldest evicted
    assert cache.lookup("k2", {}) is not None


def test_result_cache_invalidate_names():
    cache = ResultCache()
    cache.store("a", {}, 0, {"Edge": 0})
    cache.store("b", {}, 0, {"Tag": 0})
    assert cache.invalidate_names(["Edge"]) == 1
    assert cache.lookup("b", {"Tag": 0}) is not None


# -- shutdown op ------------------------------------------------------------


def test_shutdown_op_drains():
    db = Database()
    db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
    service = QueryService(db).start()
    with ServeClient(port=service.port) as c:
        assert c.query(TRIANGLES)["status"] == "ok"
        ack = c.shutdown()
        assert ack["draining"] is True
    service._thread.join(timeout=30)
    assert not service._thread.is_alive()
