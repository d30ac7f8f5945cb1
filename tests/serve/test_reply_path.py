"""The daemon's reply path: payloads decoded column by column,
serialized once, and listed in canonical row order.

A result payload carries its JSON fragment after the first
``encode_message``; the executing request, every cache hit and every
deferred-probe hit write those same bytes.  The memoized line must be
byte-identical to dumping the whole message, so the wire shape does
not move.
"""

import json
import socket

import numpy as np
import pytest

from repro import Database
from repro.cli import _load_database, build_parser
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import render_openmetrics
from repro.serve import QueryService, ServeClient
from repro.serve.protocol import (Payload, decode_message, encode_message,
                                  payload_from_relation, payload_to_outcome)
from repro.storage.dictionary import Dictionary
from repro.storage.relation import Relation

DEGREE = "Degree(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>."
PAIRS = "P(x,y) :- Edge(x,y)."
FLIPPED = "F(y,x) :- Edge(x,y)."
TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")


def _plain_dumps(message):
    """The reply line as a whole-message ``json.dumps`` writes it."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


@pytest.fixture
def service():
    db = Database()
    db.load_graph("Edge", np.array([[0, 1], [1, 2], [0, 2], [2, 3],
                                    [3, 4]]))
    svc = QueryService(db).start()
    yield svc
    svc.stop()


def _raw_lines(port, messages):
    """Send ``messages`` on one connection; return the raw reply lines."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        reader = sock.makefile("rb")
        lines = []
        for message in messages:
            sock.sendall(encode_message(message))
            lines.append(reader.readline())
        return lines


def _result_bytes(line):
    """The bytes of a reply line's top-level ``result`` value (keys are
    sorted, so ``rows`` and ``status`` follow it)."""
    start = line.index(b'"result":') + len(b'"result":')
    return line[start:line.rindex(b',"rows":')]


# -- serialized once ----------------------------------------------------------


def test_hit_carries_the_exact_result_bytes_of_the_execution(service):
    query = {"op": "query", "text": DEGREE}
    executed, hit = _raw_lines(service.port, [query, query])
    assert decode_message(executed)["cached"] is False
    assert decode_message(hit)["cached"] is True
    assert _result_bytes(hit) == _result_bytes(executed)
    (entry,) = service.cache._entries.values()
    assert entry["payload"].fragment.encode("utf-8") \
        == _result_bytes(executed)


def test_deferred_probe_hit_writes_the_stored_fragment(service):
    # A new relation bumps the identity epoch, so the next request for
    # the same program probes the cache on the worker, not the loop.
    query = {"op": "query", "text": DEGREE}
    executed, _, probed = _raw_lines(service.port, [
        query, {"op": "add_relation", "name": "Other",
                "tuples": [[1]]}, query])
    assert decode_message(probed)["cached"] is True
    assert _result_bytes(probed) == _result_bytes(executed)
    assert service.cache.hits == 1


def _payloads():
    dictionary = Dictionary()
    for value in (5, 3, 9):
        dictionary.encode(value)
    keys = np.array([[0, 1], [0, 2], [2, 1]], dtype=np.uint32)
    return {
        "scalar": Relation("S", np.zeros((1, 0)), annotations=[4.5]),
        "exists": Relation("E", np.zeros((1, 0))),
        "set": Relation("P", keys, dictionaries=[dictionary] * 2),
        "map": Relation("M", keys, annotations=[1.0, 2.5, 3.0],
                        dictionaries=[dictionary] * 2),
    }


@pytest.mark.parametrize("kind", ["scalar", "exists", "set", "map"])
def test_memoized_reply_equals_the_whole_message_dump(kind):
    relation = _payloads()[kind]
    payload = payload_from_relation(relation, Dictionary())
    assert payload["kind"] == kind
    reply = {"status": "ok", "cached": False, "rows": 3, "id": "r-1",
             "elapsed_seconds": 0.25, "result": payload}
    expected = _plain_dumps(reply)
    first = encode_message(reply)
    assert payload.fragment is not None
    again = encode_message(dict(reply, cached=True, elapsed_seconds=1e-5))
    assert first == expected
    assert again == _plain_dumps(dict(reply, cached=True,
                                      elapsed_seconds=1e-5))
    assert decode_message(first) == json.loads(expected)
    # A payload alone, or beside only earlier / only later keys.
    assert encode_message({"result": payload}) \
        == _plain_dumps({"result": payload})
    assert encode_message({"cached": True, "result": payload}) \
        == _plain_dumps({"cached": True, "result": payload})
    assert encode_message({"result": payload, "status": "ok"}) \
        == _plain_dumps({"result": payload, "status": "ok"})


def test_payload_rows_are_plain_python_values():
    payload = payload_from_relation(_payloads()["map"], Dictionary())
    assert isinstance(payload, Payload)
    assert payload["items"] == [[[5, 3], 1.0], [[5, 9], 2.5],
                                [[9, 3], 3.0]]
    assert all(type(v) is int for row, _ in payload["items"]
               for v in row)


def test_cli_loaded_graph_replies_with_plain_ints(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n0 2\n2 3\n")
    db = _load_database(build_parser().parse_args(
        ["query", "--edges", str(path), DEGREE]))
    dictionary = db.relation("Edge").dictionaries[0]
    assert dictionary._int_column() is not None
    assert all(type(v) is int
               for v in dictionary.decode_many(np.arange(len(dictionary))))
    payload = payload_from_relation(db.query(DEGREE).relation,
                                    db._dictionary)
    assert all(type(v) is int for row, _ in payload["items"] for v in row)


# -- canonical row order ------------------------------------------------------


def _encoded(dictionaries, row):
    return tuple(d.lookup(v) for d, v in zip(dictionaries, row))


def test_items_follow_canonical_order_after_append_then_delete(service):
    edges = service.db.relation("Edge").dictionaries
    with ServeClient(port=service.port) as client:
        client.append("Edge", [(9, 0), (0, 9), (4, 7), (7, 4)], check=True)
        client.delete("Edge", [(0, 1), (1, 0)], check=True)
        for text in (DEGREE, PAIRS, FLIPPED):
            reply = client.query(text, check=True)
            result = reply["result"]
            rows = [item[0] for item in result["items"]] \
                if result["kind"] == "map" else result["rows"]
            keys = [_encoded(edges, row) for row in rows]
            assert keys == sorted(set(keys)), text
            direct = Database()
            direct.load_graph("Edge", service.db.relation(
                "Edge").decoded_tuples(), undirected=False)
            assert payload_to_outcome(result) == payload_to_outcome(
                payload_from_relation(direct.query(text).relation,
                                      direct._dictionary))
        fetched = client.relation("Edge", check=True)["result"]["rows"]
        keys = [_encoded(edges, row) for row in fetched]
        assert keys == sorted(set(keys))


# -- counters -----------------------------------------------------------------


def _serve_series(registry):
    return [line for line in render_openmetrics(registry).splitlines()
            if line.startswith("repro_serve_")]


def test_memoized_serve_counters_expose_the_same_series():
    db = Database()
    db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
    db.enable_metrics()
    service = QueryService(db).start()
    try:
        with ServeClient(port=service.port) as client:
            client.ping()
            client.query(TRIANGLES, check=True)
            client.query(TRIANGLES, check=True)
            client.query("T(x) :- Missing(x).")
            client.call("frobnicate")
            client.call([1, 2])
    finally:
        service.stop()
    reference = MetricsRegistry()
    for op in ("ping", "query", "query", "query", "frobnicate", "[1, 2]"):
        reference.inc("serve.requests", labels={"op": op})
    for status in ("ok", "ok", "error"):
        reference.inc("serve.responses",
                      labels={"op": "query", "status": status})
    # both executions are first sight: their identity is decided on
    # the worker thread
    reference.inc("serve.jobs", 2, labels={"thread": "worker"})
    assert _serve_series(db.metrics) == _serve_series(reference)
    assert _serve_series(reference)


def test_serve_counters_survive_a_registry_reset():
    db = Database()
    db.load_graph("Edge", [(0, 1)])
    db.enable_metrics()
    service = QueryService(db).start()
    try:
        with ServeClient(port=service.port) as client:
            client.ping()
            db.metrics.reset()
            client.ping()
            client.ping()
    finally:
        service.stop()
    counters = db.metrics.snapshot()["counters"]
    assert counters["serve.requests{op=ping}"] == 2


def test_a_value_equal_to_the_splice_mark_falls_back_to_a_whole_dump():
    payload = payload_from_relation(_payloads()["set"], Dictionary())
    for key in ("id", "status"):
        reply = {key: "\x00payload\x00", "result": payload}
        assert encode_message(reply) == _plain_dumps(reply)
