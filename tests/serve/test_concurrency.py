"""Concurrency harness: N clients, mixed reads/writes, serial oracle.

Three properties of the daemon under real thread-level concurrency:

1. **Bit-identical results.**  Phase-structured load — many clients
   hammering overlapping cached/uncached queries, mutations applied at
   phase barriers — must produce, for every single request, exactly
   the payload a serial replay of the same ops produces on a direct
   :class:`~repro.api.Database`.  Cache hits and misses must agree.
2. **No stale hits.**  Queries racing an in-flight mutation may see
   the pre- or post-mutation answer (admission order decides), but a
   query issued *after* the mutation's acknowledgement must see the
   post-mutation answer — a stale cache entry served after its
   invalidation would break exactly this.
3. **Clean drain.**  Shutdown during in-flight requests answers them
   before the socket closes; later requests are rejected.
"""

import threading

import pytest

from repro import Database
from repro.serve import QueryService, ServeClient
from repro.serve.protocol import payload_from_relation

CLIENTS = 6
REPEATS = 4

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
TAG_COUNT = "C(;w:long) :- Tag(x); w=<<COUNT(*)>>."
EDGE_PAIRS = "P(x,y) :- Edge(x,y)."

#: (query text, repeats per client per phase) — overlapping cached and
#: uncached programs; EDGE_PAIRS keeps a multi-tuple payload in play.
WORKLOAD = [(TRIANGLES, REPEATS), (TAG_COUNT, REPEATS),
            (EDGE_PAIRS, 2)]

#: Mutations applied at phase barriers: (op, relation, tuples).
PHASES = [
    ("append", "Edge", [(1, 3), (3, 1)]),     # closes a second triangle
    ("append", "Tag", [(7,), (8,)]),          # unrelated to triangles
    ("delete", "Edge", [(2, 3), (3, 2)]),
    ("append", "Edge", [(0, 3), (3, 0)]),
]

BASE_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3)]
BASE_TAGS = [(1,), (2,)]


def _fresh_db():
    db = Database()
    db.load_graph("Edge", BASE_EDGES)
    db.add_relation("Tag", BASE_TAGS)
    return db


def _oracle_payloads():
    """Serial replay: expected payload of every query in every phase
    (phase 0 = before any mutation)."""
    db = _fresh_db()
    expected = []
    for phase in range(len(PHASES) + 1):
        if phase > 0:
            op, name, tuples = PHASES[phase - 1]
            getattr(db, op)(name, tuples)
        row = {}
        for text, _ in WORKLOAD:
            relation = db.query(text).relation
            row[text] = payload_from_relation(relation)
        expected.append(row)
    return expected


@pytest.fixture
def service():
    db = _fresh_db()
    svc = QueryService(db, max_inflight=64, debug=True).start()
    yield svc
    svc.stop()


def test_phased_mixed_load_matches_serial_replay(service):
    expected = _oracle_payloads()
    errors = []
    barrier = threading.Barrier(CLIENTS + 1)

    def client_worker(index):
        try:
            with ServeClient(port=service.port) as client:
                for phase in range(len(PHASES) + 1):
                    barrier.wait()  # mutation applied, phase open
                    for text, repeats in WORKLOAD:
                        for _ in range(repeats):
                            reply = client.call_with_retry("query",
                                                           text=text)
                            if reply["status"] != "ok":
                                errors.append((index, phase, reply))
                                continue
                            if reply["result"] != expected[phase][text]:
                                errors.append(
                                    (index, phase, text,
                                     reply["result"],
                                     expected[phase][text]))
                    barrier.wait()  # phase closed, no queries in flight
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append((index, "exception", repr(error)))
            # Unblock the coordinator rather than deadlocking the test.
            barrier.abort()

    threads = [threading.Thread(target=client_worker, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    with ServeClient(port=service.port) as control:
        for phase in range(len(PHASES) + 1):
            barrier.wait()   # open the phase for the clients
            barrier.wait()   # wait for every client to finish it
            if phase < len(PHASES):
                op, name, tuples = PHASES[phase]
                reply = getattr(control, op)(name, tuples)
                assert reply["status"] == "ok", reply
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors[:5]


def test_cache_tiers_match_serial_replay(service):
    # Same query from many clients: exactly one miss computes, the
    # rest hit; after a related mutation, exactly one more miss.
    results = [None] * CLIENTS

    def worker(index):
        with ServeClient(port=service.port) as client:
            results[index] = [client.call_with_retry("query",
                                                     text=TRIANGLES)
                              for _ in range(REPEATS)]

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    flat = [reply for batch in results for reply in batch]
    assert all(reply["status"] == "ok" for reply in flat)
    assert len(set(repr(reply["result"]) for reply in flat)) == 1
    snapshot = service.cache.snapshot()
    # Concurrent first arrivals may each miss (the entry is not stored
    # yet) and execute FIFO; once the entry lands, every later request
    # hits — a pending same-program execution never blocks the hit.
    assert snapshot["hits"] > 0
    assert snapshot["hits"] + snapshot["misses"] \
        + snapshot["bypasses"] == len(flat)
    with ServeClient(port=service.port) as client:
        client.append("Edge", [(1, 3), (3, 1)])
        post = client.query(TRIANGLES)
        assert post["cached"] is False
        assert post["result"]["value"] == 12.0
        assert client.query(TRIANGLES)["cached"] is True


def test_no_stale_hits_when_racing_a_mutation(service):
    # Queries racing one mutation may land before or after it, but
    # never see a third value — and queries issued after the mutation
    # ack must see the post-mutation answer.
    pre = {"kind": "scalar", "value": 6.0}
    post = {"kind": "scalar", "value": 12.0}
    racing = []
    stop = threading.Event()

    def reader():
        with ServeClient(port=service.port) as client:
            while not stop.is_set():
                racing.append(client.call_with_retry("query",
                                                     text=TRIANGLES))

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    with ServeClient(port=service.port) as control:
        assert control.query(TRIANGLES)["result"] == pre
        control.append("Edge", [(1, 3), (3, 1)])
        after_ack = control.query(TRIANGLES)
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    assert after_ack["result"] == post
    for reply in racing:
        assert reply["status"] == "ok"
        assert reply["result"] in (pre, post), reply


def test_pending_unknown_program_blocks_only_readers_of_its_heads(
        service):
    # A program the daemon has never seen runs with its identity still
    # unknown; it marks the heads it installs, so hits on programs that
    # neither read nor install them stay on the fast path.
    head_count = "HC(;w:long) :- P(x,y); w=<<COUNT(*)>>."
    reinstall = "P(x,y) :- Edge(y,x)."
    with ServeClient(port=service.port) as client:
        for text in (TAG_COUNT, EDGE_PAIRS, head_count):
            client.query(text)
        assert client.query(TAG_COUNT)["cached"] is True
        assert client.query(head_count)["cached"] is True
    reply_box = {}

    def slow_writer():
        with ServeClient(port=service.port) as client:
            reply_box["slow"] = client.query(reinstall, debug_sleep=0.5)

    thread = threading.Thread(target=slow_writer)
    thread.start()
    import time
    time.sleep(0.15)  # let the slow query enter execution
    with ServeClient(port=service.port) as client:
        assert "P" in service._pending
        hit = client.query(TAG_COUNT)
        assert hit["cached"] is True
        assert "slow" not in reply_box
        bypasses = service.cache.bypasses
        blocked = client.query(head_count)
        assert blocked["cached"] is False
        assert service.cache.bypasses == bypasses + 1
        assert blocked["result"]["value"] == 8.0
    thread.join(timeout=30)
    assert reply_box["slow"]["status"] == "ok"
    assert reply_box["slow"]["rows"] == 8


def test_drain_answers_inflight_then_rejects(service):
    # A slow query in flight when shutdown begins still gets its
    # answer; requests arriving during the drain are rejected.
    reply_box = {}

    def slow_reader():
        with ServeClient(port=service.port) as client:
            reply_box["slow"] = client.query(EDGE_PAIRS,
                                             debug_sleep=0.5)

    thread = threading.Thread(target=slow_reader)
    thread.start()
    import time
    time.sleep(0.15)  # let the slow query enter execution
    with ServeClient(port=service.port) as control:
        assert control.shutdown()["draining"] is True
        rejected = control.query(TRIANGLES)
        assert rejected["status"] == "rejected"
        assert rejected["code"] == "shutting_down"
    thread.join(timeout=30)
    assert reply_box["slow"]["status"] == "ok"
    assert reply_box["slow"]["rows"] == 8
    service._thread.join(timeout=30)
    assert not service._thread.is_alive()


def test_backpressure_rejects_with_retry_after():
    db = _fresh_db()
    service = QueryService(db, max_inflight=1, debug=True).start()
    try:
        replies = [None, None]

        def occupant():
            with ServeClient(port=service.port) as client:
                replies[0] = client.query(EDGE_PAIRS, debug_sleep=0.6)

        thread = threading.Thread(target=occupant)
        thread.start()
        import time
        time.sleep(0.15)
        with ServeClient(port=service.port) as client:
            replies[1] = client.query(TRIANGLES)
            assert replies[1]["status"] == "rejected"
            assert replies[1]["code"] == "overloaded"
            assert replies[1]["retry_after"] > 0
            # Honoring the hint eventually succeeds.
            final = client.call_with_retry("query", text=TRIANGLES,
                                           attempts=50)
            assert final["status"] == "ok"
        thread.join(timeout=30)
        assert replies[0]["status"] == "ok"
    finally:
        service.stop()
