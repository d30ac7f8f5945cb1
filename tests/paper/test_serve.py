"""Query daemon: warm answers, surgical invalidation, mixed load.

The ``repro.serve`` daemon keeps one Database alive across requests.
Through a real socket round trip its answers — hit or miss — equal a
direct query; a mutation outside a cached query's read set leaves the
entry warm while one inside it invalidates the entry, with the
daemon's cache counters and the telemetry tier counters agreeing; and
a 90/10 read/write storm from several clients gets only ``ok``
replies.  That a warm hit is 10x faster than per-request construction
is a clock reading, gated in ``benchmarks/floors.py``.
"""

import threading

import numpy as np
import pytest

from repro import Database
from repro.serve import QueryService, ServeClient

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
TAG_COUNT = "C(;w:long) :- Tag(x); w=<<COUNT(*)>>."

#: (nodes, edges) of the served graph.
SCALE = (250, 5000)

#: ~1 write per this many requests of the mixed load.
WRITE_EVERY = 10


def base_graph(seed=7):
    """Deduplicated random directed edge list as row tuples."""
    nodes, edges = SCALE
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, nodes, size=(edges * 2, 2), dtype=np.int64)
    raw = raw[raw[:, 0] != raw[:, 1]]
    return [tuple(int(v) for v in row)
            for row in np.unique(raw, axis=0)[:edges]]


def fresh_db():
    db = Database()
    db.add_relation("Edge", base_graph())
    db.add_relation("Tag", [(1,), (2,), (3,)])
    return db


def start_service(telemetry=False, **kwargs):
    """A live daemon over a freshly loaded database."""
    db = fresh_db()
    if telemetry:
        db.enable_telemetry()
    return QueryService(db, **kwargs).start()


def head_variant(index):
    """Same body, fresh head name: defeats the result cache."""
    return TRIANGLES.replace("T(", "T%d(" % index, 1)


def test_warm_results_match_direct_execution():
    expected = fresh_db().query(TRIANGLES).relation.scalar_value
    hits, misses = [], []
    service = start_service()
    try:
        with ServeClient(port=service.port) as client:
            first = client.query(TRIANGLES, check=True)
            for index in range(3):
                reply = client.query(TRIANGLES, check=True)
                assert reply["cached"] is True, reply
                assert reply["result"] == first["result"]
                hits.append(reply)
                misses.append(client.query(head_variant(index),
                                           check=True))
    finally:
        service.stop()
    assert first["result"]["value"] == expected
    assert len(hits) == len(misses) == 3


def test_invalidation_is_surgical():
    """Miss, hit, unrelated mutation (``Tag`` is outside the triangle
    query's read set) and the hit *survives*; related mutation
    (``Edge``), miss, then hit again — witnessed by the daemon's cache
    counters and by the telemetry tier counters."""
    service = start_service(telemetry=True)
    try:
        with ServeClient(port=service.port) as client:
            tiers = [client.query(TRIANGLES, check=True)["cached"],
                     client.query(TRIANGLES, check=True)["cached"]]
            client.append("Tag", [(99,)], check=True)
            tiers.append(client.query(TRIANGLES, check=True)["cached"])
            client.append("Edge", [(9990, 9991)], check=True)
            tiers.append(client.query(TRIANGLES, check=True)["cached"])
            tiers.append(client.query(TRIANGLES, check=True)["cached"])
            counters = service.db.metrics.snapshot()["counters"]
            cache = service.cache.snapshot()
    finally:
        service.stop()
    assert tiers == [False, True, True, False, True]
    assert (cache["hits"], cache["misses"]) == (3, 2)
    assert counters.get("telemetry.result_cache{tier=hit}", 0) == 3
    assert counters.get("telemetry.result_cache{tier=miss}", 0) == 2


@pytest.mark.parametrize("clients,requests", [(3, 12), (4, 40)],
                         ids=["3x12", "4x40"])
def test_mixed_load_all_ok(clients, requests):
    """Client threads x requests, every tenth a write."""
    service = start_service(max_inflight=clients * 2)
    replies = []
    lock = threading.Lock()

    def worker(index):
        with ServeClient(port=service.port) as client:
            for step in range(requests):
                if step % WRITE_EVERY == WRITE_EVERY - 1:
                    reply = client.call_with_retry(
                        "append", name="Tag",
                        tuples=[[100 + index * requests + step]])
                else:
                    text = TRIANGLES if step % 2 else TAG_COUNT
                    reply = client.call_with_retry("query", text=text)
                with lock:
                    replies.append((index, step, reply))

    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        service.stop()
    assert len(replies) == clients * requests
    failures = [entry for entry in replies if entry[2]["status"] != "ok"]
    assert not failures, failures[:3]
