"""Fault injection: per-query timeouts, SIGTERM mid-request.

The ``debug_sleep`` request field (honored only with ``debug=True``)
injects latency *inside* the telemetry journal window — between
``begin_query`` and ``record_query`` — so these tests exercise exactly
the states a production stall would: a request past its deadline with
its worker still running, and a process signaled while a query is in
flight (the flight recorder's write-ahead journal must name it).
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import Database
from repro.serve import QueryService, ServeClient
from repro.serve.protocol import decode_message, encode_message

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
EDGE_PAIRS = "P(x,y) :- Edge(x,y)."


@pytest.fixture
def service(tmp_path):
    db = Database()
    db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
    svc = QueryService(db, debug=True,
                       telemetry_dir=str(tmp_path / "telemetry")).start()
    yield svc
    svc.stop()


def test_slow_query_times_out_with_structured_error(service):
    with ServeClient(port=service.port) as client:
        reply = client.query(EDGE_PAIRS, timeout=0.15, debug_sleep=1.0)
        assert reply["status"] == "error"
        assert reply["code"] == "timeout"
        assert "timeout" in reply["error"]
        assert service.timeouts == 1


def test_timeout_frees_slot_and_next_query_is_unaffected(service):
    # The timed-out worker is still running when the next query is
    # admitted; the slot is free, the next query queues FIFO behind the
    # zombie and completes correctly.
    with ServeClient(port=service.port) as client:
        assert client.query(EDGE_PAIRS, timeout=0.1,
                            debug_sleep=0.6)["code"] == "timeout"
        follow_up = client.query(TRIANGLES)
        assert follow_up["status"] == "ok"
        assert follow_up["result"]["value"] == 6.0
    # Once the zombie drains, nothing is left pending.
    deadline = time.time() + 5
    while service._outstanding and time.time() < deadline:
        time.sleep(0.02)
    assert service._outstanding == 0
    assert service._pending == {}


def test_timeout_cancels_queued_op_cleanly(service):
    # An op that times out while still *queued* (the worker is busy) is
    # cancelled before execution: its effects never apply, the cache
    # stays valid, and its pending marks are released.
    with ServeClient(port=service.port) as client:
        client.query(TRIANGLES)
        assert client.query(TRIANGLES)["cached"] is True
        # Occupy the worker so the mutation times out in the queue.
        slow = threading.Thread(
            target=lambda: ServeClient(port=service.port).query(
                EDGE_PAIRS, debug_sleep=0.5))
        slow.start()
        time.sleep(0.15)
        reply = client.append("Edge", [(1, 3), (3, 1)],
                              timeout=0.05)
        assert reply["code"] == "timeout"
        slow.join(timeout=30)
        deadline = time.time() + 5
        while service._outstanding and time.time() < deadline:
            time.sleep(0.02)
        assert service._pending == {}
        post = client.query(TRIANGLES)
        assert post["cached"] is True  # the mutation never ran
        assert post["result"]["value"] == 6.0


def test_worker_claim_decides_who_runs_a_job():
    # The worker thread runs jobs in submission order, skips one whose
    # claim the loop took first, and runs what was queued before
    # shutdown; a started job's claim can no longer be taken.
    from repro.serve.server import _Worker
    worker = _Worker()
    gate, ran = threading.Event(), []
    worker.submit(lambda: gate.wait(10))
    withdrawn = worker.submit(lambda: ran.append("withdrawn"))
    kept = worker.submit(lambda: ran.append("kept"))
    assert withdrawn.acquire(blocking=False)
    gate.set()
    worker.shutdown()
    worker.join(timeout=10)
    assert not worker._thread.is_alive()
    assert ran == ["kept"]
    assert not kept.acquire(blocking=False)


def test_timed_out_running_query_still_completes(service):
    # A timeout on a *running* query is a response deadline, not an
    # abort: the worker finishes in the background and its effects
    # (including the result-cache store) still apply via _finish.
    with ServeClient(port=service.port) as client:
        reply = client.query(EDGE_PAIRS, timeout=0.1, debug_sleep=0.4)
        assert reply["code"] == "timeout"
        deadline = time.time() + 5
        while service._outstanding and time.time() < deadline:
            time.sleep(0.02)
        replay = client.query(EDGE_PAIRS)
        assert replay["status"] == "ok"
        assert replay["cached"] is True  # the zombie stored its result


def test_per_request_timeout_overrides_default():
    db = Database()
    db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
    service = QueryService(db, debug=True, default_timeout=0.1).start()
    try:
        with ServeClient(port=service.port) as client:
            # Default would kill this; the per-request timeout saves it.
            reply = client.query(EDGE_PAIRS, timeout=5.0,
                                 debug_sleep=0.3)
            assert reply["status"] == "ok"
            # And the default applies when the request carries none.
            reply = client.query(EDGE_PAIRS, debug_sleep=0.5)
            assert reply["code"] == "timeout"
    finally:
        service.stop()


def _repo_paths():
    root = Path(__file__).resolve().parents[2]
    return root, root / "src"


def _spawn_daemon(tmp_path, telemetry_dir, extra_args=()):
    root, src = _repo_paths()
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n0 2\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--edges", str(edges), "--telemetry", str(telemetry_dir),
         "--debug", "--drain-timeout", "0.3", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=str(root), env=env, text=True)
    line = process.stdout.readline()
    assert "listening on" in line, (line, process.stderr.read())
    port = int(line.rsplit(":", 1)[1])
    return process, port


def _raw_request(port, message, read_reply=True, timeout=10.0):
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.sendall(encode_message(message))
    if not read_reply:
        return sock
    with sock, sock.makefile("rb") as reader:
        return decode_message(reader.readline())


def test_sigterm_mid_request_leaves_post_mortem(tmp_path):
    from repro.obs.flight import post_mortem, validate_post_mortem
    telemetry_dir = tmp_path / "telemetry"
    process, port = _spawn_daemon(tmp_path, telemetry_dir)
    try:
        # Sanity: the daemon answers.
        assert _raw_request(port, {"op": "ping"})["pong"] is True
        # Park a slow query inside the journal window, then SIGTERM.
        sock = _raw_request(port, {"op": "query", "text": EDGE_PAIRS,
                                   "debug_sleep": 3.0},
                            read_reply=False)
        time.sleep(0.4)  # let it journal + enter execution
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        sock.close()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    payload = post_mortem(str(telemetry_dir))
    assert payload is not None
    assert not validate_post_mortem(payload)
    assert payload["reason"] == "sigterm"
    inflight = payload["inflight"]
    assert inflight is not None, "slow query missing from journal"
    assert inflight["status"] == "inflight"
    assert inflight["text"] == EDGE_PAIRS
    assert inflight["result_cache"] == "miss"


def test_sigterm_idle_drains_cleanly(tmp_path):
    from repro.obs.flight import post_mortem
    telemetry_dir = tmp_path / "telemetry"
    process, port = _spawn_daemon(tmp_path, telemetry_dir)
    try:
        reply = _raw_request(port, {"op": "query", "text": TRIANGLES})
        assert reply["status"] == "ok"
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    assert process.returncode == 0
    payload = post_mortem(str(telemetry_dir))
    assert payload["reason"] == "sigterm"
    assert payload["inflight"] is None  # nothing was executing
    assert any(record.get("text") == TRIANGLES
               for record in payload["records"])
    # The query log survived the drain with the serve fields stamped.
    from repro.obs.telemetry import read_query_log
    records = read_query_log(str(telemetry_dir / "queries.jsonl"))
    assert any(record.get("result_cache") == "miss"
               for record in records)
