"""Which thread runs an executed op.

An op runs on the event loop when nothing else is outstanding and its
last measured run, plus the last refresh of every view stale now, is
predicted to fit one ``sys.getswitchinterval()``; everything else —
first sight, unmeasured, long, ``debug_sleep``, a ``timeout`` the
prediction does not clear — runs on the worker thread.  The split is
visible as ``status()["jobs"]`` and the ``serve.jobs{thread=...}``
counter.  Each test here fails if the rule is removed (everything on
the worker) or inverted (long ops on the loop).  The databases pin the
default engine: what fits the bound is a matter of speed, and the
interpreted oracle is 10-40x slower.  A measurement is taken on a warm
run before a test expects the loop, since a first run compiles, and a
test that expects the loop allows a few runs to get there: a run
preempted on a busy machine measures long once and sends the next run
of the op to the worker.
"""

import threading
import time

import pytest

from repro import Database
from repro.engine import incremental
from repro.obs.openmetrics import render_openmetrics, validate_openmetrics
from repro.serve import QueryService, ServeClient

VIEW = "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>."
HOT = ("Hot(;w:float) :- Edge(x,y); w=<<COUNT(*)>>+T.",
       "Degree(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>.")
EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 4), (4, 5)]
BATCH = [(0, 3), (3, 0)]
TAGS = "Tagged(x) :- Tag(x)."
PAIRS = "P(x,y) :- Edge(x,y)."


def two_hop(node):
    return "Hop(;w:long) :- Edge(%d,y),Edge(y,z); w=<<COUNT(*)>>." % node


#: Runs an op that fits the bound gets to reach the loop.
ATTEMPTS = 5


def jobs(client):
    return client.status()["jobs"]


def ran_on(client, call):
    """``(reply, thread)``: ``call()``'s reply and the thread it ran on
    (``None`` for a reply that ran no job, such as a cache hit)."""
    before = jobs(client)
    reply = call()
    after = jobs(client)
    moved = [thread for thread in ("loop", "worker")
             if after[thread] != before[thread]]
    assert len(moved) <= 1 and sum(after.values()) \
        - sum(before.values()) <= 1, (before, after)
    return reply, (moved[0] if moved else None)


def database(**options):
    db = Database(execution_mode="compiled", **options)
    db.load_graph("Edge", EDGES)
    return db


@pytest.fixture
def db():
    return database()


@pytest.fixture
def service(db):
    svc = QueryService(db, debug=True).start()
    yield svc
    svc.stop()


def test_warm_small_traffic_runs_on_the_loop(db, service):
    """``serve_mixed``'s shape at toy size: a view refreshed after
    every write, hot programs, one-off misses.  Once every op has been
    measured, the ops run on the loop, the answers are what direct
    execution gives, and the counter tells the same story."""
    db.enable_metrics()
    direct = database()
    direct.materialize("T", VIEW)
    reads = HOT + tuple(two_hop(node) for node in (0, 1, 2))
    with ServeClient(port=service.port) as client:
        client.materialize("T", VIEW, check=True)

        def cycle(kind):
            """A write, then every read: each read executes."""
            reply, thread = ran_on(client, lambda: client.call(
                kind, name="Edge", tuples=BATCH, check=True))
            assert reply["changed"] == len(BATCH)
            getattr(direct, kind)("Edge", BATCH)
            placed = [thread]
            for text in reads:
                reply, thread = ran_on(client, lambda: client.query(
                    text, check=True))
                expected = direct.query(text)
                if expected.relation.arity == 0:
                    assert reply["result"]["value"] == expected.scalar
                else:
                    assert reply["rows"] == expected.count
                assert reply["cached"] is False
                placed.append(thread)
            return placed
        # nothing is measured yet: the first write and first sights
        assert cycle("append") == ["worker"] * (1 + len(reads))
        cycle("delete")  # measures warm runs
        placed = [thread for round_ in range(6)
                  for thread in cycle(("append", "delete")[round_ % 2])]
        status = jobs(client)
    # a stray slow measurement on a loaded machine may send an op to
    # the worker once; without the rule every op goes there
    assert placed.count("loop") >= len(placed) // 2, placed
    text = render_openmetrics(db.metrics)
    assert validate_openmetrics(text) == []
    for thread in ("loop", "worker"):
        assert 'repro_serve_jobs_total{thread="%s"} %d' \
            % (thread, status[thread]) in text.splitlines()


def test_a_long_program_runs_on_the_worker_beside_hits(db, service):
    """A program whose last run exceeded the bound goes to the worker,
    so a cache hit and ``status`` on another connection are answered
    while it runs."""
    db.add_relation("Tag", [(1,), (2,)])
    plain = db.query

    def query(text, **kwargs):
        if text == PAIRS:
            time.sleep(0.4)
        return plain(text, **kwargs)
    db.query = query
    with ServeClient(port=service.port) as client:
        _, thread = ran_on(client, lambda: client.query(PAIRS, check=True))
        assert thread == "worker"  # first sight
        client.query(TAGS, check=True)
        assert client.query(TAGS, check=True)["cached"] is True
        client.append("Edge", BATCH, check=True)  # PAIRS re-executes
        for _ in range(2):  # a measured write, changing nothing
            client.append("Tag", [(1,)], check=True)
        before = jobs(client)
        done = {}

        def slow():
            with ServeClient(port=service.port) as other:
                done["reply"] = other.query(PAIRS, check=True)
                done["at"] = time.perf_counter()
        runner = threading.Thread(target=slow)
        runner.start()
        deadline = time.time() + 5
        while not service._outstanding and time.time() < deadline:
            time.sleep(0.005)
        hit = client.query(TAGS, check=True)
        status = client.status()
        answered = time.perf_counter()
        # a short op queues behind the long one: one op at a time
        client.append("Tag", [(2,)], check=True)
        runner.join(timeout=30)
        after = jobs(client)
    assert hit["cached"] is True
    assert status["outstanding"] == 1
    assert answered < done["at"]
    assert done["reply"]["cached"] is False
    assert (after["worker"] - before["worker"],
            after["loop"] - before["loop"]) == (2, 0)


def test_first_sight_runs_on_the_worker(service):
    """A first-sight program decides its identity on the worker, which
    asks the event loop to probe the cache: inline, that would wait on
    itself.  Measured and warm, the same programs run on the loop."""
    texts = [two_hop(node) for node in (0, 1, 2)]
    with ServeClient(port=service.port, timeout=5) as client:
        for text in texts:
            reply, thread = ran_on(client, lambda: client.query(
                text, check=True))
            assert (reply["cached"], thread) == (False, "worker")
        on_loop = set()
        for round_ in range(ATTEMPTS + 1):  # the first measures warm
            kind = ("append", "delete")[round_ % 2]
            client.call(kind, name="Edge", tuples=BATCH, check=True)
            for text in texts:
                if ran_on(client, lambda: client.query(
                        text, check=True))[1] == "loop" and round_:
                    on_loop.add(text)
    assert on_loop == set(texts)


def test_debug_sleep_and_short_deadlines_run_on_the_worker(service):
    """``debug_sleep`` and a ``timeout`` at or below the prediction go
    to the worker, where the deadline answers as before; a deadline
    the prediction clears stays on the loop."""
    with ServeClient(port=service.port) as client:
        client.query(PAIRS, check=True)

        def after_write(**fields):
            client.append("Edge", BATCH, check=True)
            client.delete("Edge", BATCH, check=True)
            return ran_on(client, lambda: client.query(PAIRS, **fields))

        def reaches_the_loop(**fields):
            for _ in range(ATTEMPTS):
                reply, thread = after_write(**fields)
                assert reply["status"] == "ok"
                if thread == "loop":
                    return True
            return False
        after_write()  # measures a warm run
        assert reaches_the_loop()
        assert reaches_the_loop(timeout=30.0)
        # the job may still beat a deadline this short on the worker
        reply, thread = after_write(timeout=1e-9)
        assert (reply.get("code", "ok"), thread) in (("timeout", "worker"),
                                                     ("ok", "worker"))
        reply, thread = after_write(debug_sleep=0.01)
        assert (reply["status"], thread) == ("ok", "worker")
        reply, thread = after_write(timeout=0.1, debug_sleep=0.5)
        assert (reply.get("code"), thread) == ("timeout", "worker")


def test_a_slow_stale_view_sends_the_next_query_to_the_worker(
        monkeypatch):
    """``Database.query`` refreshes every stale view first, so the last
    refresh of a view a write made stale is part of the prediction."""
    db = database(incremental_views=False)
    rerun = incremental._rerun
    delay = {"seconds": 0.05}

    def slow_rerun(database, view):
        time.sleep(delay["seconds"])
        rerun(database, view)
    monkeypatch.setattr(incremental, "_rerun", slow_rerun)
    service = QueryService(db).start()
    try:
        with ServeClient(port=service.port) as client:
            client.materialize("T", VIEW, check=True)
            client.query(HOT[0], check=True)
            threads = []
            for delay["seconds"] in (0.05, 0.05) + (0.0,) * ATTEMPTS:
                client.append("Edge", BATCH, check=True)
                client.delete("Edge", BATCH, check=True)
                threads.append(ran_on(client, lambda: client.query(
                    HOT[0], check=True))[1])
    finally:
        service.stop()
    # each delete refreshes the view first, so a query predicts the
    # refresh the delete measured: slow twice, then fast
    assert threads[:2] == ["worker", "worker"], threads
    assert "loop" in threads[2:], threads
