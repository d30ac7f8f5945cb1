"""The asyncio query daemon: admission control, result cache, drain.

One :class:`QueryService` wraps one :class:`~repro.api.Database` and
serves the :mod:`repro.serve.protocol` over TCP.  Design:

**Single-writer execution.**  ``Database`` is not thread-safe (even a
read query installs intermediate heads into the catalog), so admitted
ops — queries, mutations, relation fetches — run **one at a time, in
admission order**, on whichever thread runs them.  That order is the
whole consistency story: a query admitted before a mutation executes
before it and sees the pre-mutation catalog; a query admitted after
it sees the post-mutation catalog.  An op runs on the event loop
itself when nothing else is outstanding and its last measured run
(plus the refreshes of the views stale now) fits one
``sys.getswitchinterval()`` — the GIL hand-off to a second thread
costs more than such an op, and a loop thread already waits that long
for the GIL behind a worker job.  Every other op — first sight,
unmeasured, long, carrying ``debug_sleep`` or a ``timeout`` the
prediction does not clear — goes to one worker thread
(:class:`_Worker`: a bare thread draining a ``queue.SimpleQueue``) in
FIFO order, so one long query never stalls cache hits.  The event loop touches the database only
while no op is outstanding on the worker.

**Admission control.**  At most ``max_inflight`` requests hold a slot
(admitted, response not yet sent).  Excess requests are rejected
immediately with ``status="rejected"`` and a ``retry_after`` estimate
(429 semantics) — the daemon never buffers unbounded work.  Per-query
timeouts cover queue wait + execution; a timed-out request gets a
structured error and releases its slot at once, while its (already
running) worker computation finishes in the background and still
applies its effects — a timeout is a response deadline, not an abort.

**Result cache.**  Cacheable queries are keyed by optimized-IR
identity (:func:`~repro.serve.cache.program_identity`); entries stamp
the invalidation epoch of every relation they read *and* every head
they install (so a foreign program reinstalling the same head name
invalidates them).  Program identity itself touches the live catalog,
so it is only ever *computed* on the worker thread — serialized with
every mutation; the event loop consults a memo and, when that memo is
cold, defers the whole decision to the worker, which probes the cache
at its FIFO position (where every earlier op has applied its effects
and nothing later has run — a hit there is trivially bit-identical to
serial replay).  The memo is stamped with an identity epoch that only
ops able to change an identity bump: a new relation, a materialize,
and an append that grew one of the relation's dictionaries (identity
reads the catalog through name resolution and constant encodings
alone, and an absent constant encodes the same however the relation's
rows change).  Completed ops apply their *effects* on the event loop
in completion (= admission) order: mutations bump the mutated
relation's epoch and evict entries stamped with it; executed queries
bump their installed heads' epochs and store their payload.  A query
arriving while a mutation (or an overlapping execution) is pending on
one of its relations *bypasses* the memo fast path and executes FIFO
instead — a loop-side hit is only served when nothing that could
change its answer is in flight.  A query whose identity is not
memoized marks the heads its text names (parsing reads no catalog),
so it blocks only the hits that read or install those heads; a
materialize still blocks every hit.

**Drain.**  ``shutdown`` (the op, SIGTERM, or SIGINT) stops admitting
(new requests are rejected with ``code="shutting_down"``), waits up to
``drain_timeout`` for in-flight work, closes the listener and every
client connection (Python ≥ 3.12 makes ``Server.wait_closed`` block
until all handlers exit, and an idle client holding its socket open
must not stall the drain), closes the telemetry hub (flight recorder
post-mortem + OpenMetrics flush), and stops the loop.

Telemetry plugs into the PR 8 pipeline: executed queries carry
``result_cache`` / ``queue_seconds`` in their query-log records via
``Database.query(_record_extra=...)``; cache hits synthesize a full
schema-valid record on the event loop (the hub is thread-safe).
"""

import asyncio
import concurrent.futures
import os
import queue
import sys
import threading
import time

from ..engine.plan_cache import config_signature
from ..errors import EmptyHeadedError
from ..obs.telemetry import QUERY_LOG_VERSION, key_digest, text_digest
from ..query.parser import parse
from . import protocol
from .cache import ResultCache, program_identity

#: Pending-mark token for mutations (see ``QueryService._pending``).
_MUTATION = "__mutation__"
#: Pending-mark token for the heads of a query whose identity is not
#: known yet: it equals no cache key, so it is foreign to every hit.
_DEFERRED = "__deferred__"


class QueryService:
    """A long-lived daemon wrapping one warm :class:`~repro.api.Database`.

    Parameters
    ----------
    db:
        The database to serve.  Its plan cache and trie cache stay
        warm across every request.
    host / port:
        Bind address; port 0 picks a free port (read ``service.port``
        after :meth:`start`).
    max_inflight:
        Admission-slot count: requests admitted but not yet answered.
        Excess requests are rejected with ``retry_after``.
    default_timeout:
        Per-query timeout (seconds) when the request carries none;
        ``None`` = no timeout.
    drain_timeout:
        Graceful-shutdown budget for in-flight work.
    cache_capacity:
        Result-cache entry bound (LRU).
    telemetry_dir:
        Enable continuous telemetry into this directory (query log,
        flight recorder, OpenMetrics) unless the database already has
        a hub.
    debug:
        Honor the ``debug_sleep`` request field (fault-injection
        hooks for tests); never enable in production.
    announce:
        Print ``repro serve listening on host:port`` once bound (the
        CLI sets this so subprocess harnesses can discover port 0).
    """

    def __init__(self, db, host="127.0.0.1", port=0, max_inflight=32,
                 default_timeout=None, drain_timeout=5.0,
                 cache_capacity=256, telemetry_dir=None, debug=False,
                 announce=False):
        self.db = db
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.default_timeout = default_timeout
        self.drain_timeout = drain_timeout
        self.debug = debug
        self.announce = announce
        if telemetry_dir is not None and db.telemetry is None:
            db.enable_telemetry(directory=telemetry_dir)
        self.hub = db.telemetry
        self.cache = ResultCache(cache_capacity)
        #: ``{relation name: invalidation epoch}`` — bumped by applied
        #: mutations and query head installs; result-cache validity.
        self._epochs = {}
        #: Coarse epoch for the program-identity memo: bumped by any
        #: op that can change name resolution or dictionary encodings
        #: (an append only when it grew a dictionary).
        self._identity_epoch = 0
        #: ``text -> [identity_epoch, identity, hit record fields,
        #: seconds]``; the fields (a cache hit's query-log record less
        #: what each hit stamps) are filled in by the first hit, the
        #: seconds (the last execution's, less the view refreshes it
        #: paid for) by every execution.
        self._identity_memo = {}
        #: ``{relation name: seconds}`` of the last append or delete
        #: of the relation, less the view refreshes it paid for.
        self._mutation_seconds = {}
        #: Executed ops by the thread they ran on.
        self._jobs = {"loop": 0, "worker": 0}
        #: ``{relation name: {token: count}}`` of admitted-but-
        #: unfinished ops that will mutate or install the relation.
        #: Mutations mark with :data:`_MUTATION`; query executions mark
        #: their heads with their own cache key, so a *same-program*
        #: request can still be served from the cache (its concurrent
        #: execution installs identical content) while foreign readers
        #: of the head bypass to FIFO execution.  A query whose key is
        #: not known yet marks its heads with :data:`_DEFERRED`.
        self._pending = {}
        self._pending_global = 0
        self._connections = set()  # open client writers, loop-owned
        self._inflight = 0
        self._outstanding = 0  # dispatched ops whose effects are unapplied
        self._draining = False
        self._ewma_seconds = 0.01
        self.requests = 0
        self.rejected = 0
        self.timeouts = 0
        self._counters = {}  # series -> (registry dict, Counter)
        self.started = time.time()
        self._worker = _Worker()
        self._loop = None
        self._server = None
        self._stopped = None
        self._thread = None
        self._ready = None

    # -- lifecycle ----------------------------------------------------------

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.announce:
            print("repro serve listening on %s:%d"
                  % (self.host, self.port), flush=True)
        if self._ready is not None:
            self._ready.set()
        await self._stopped.wait()

    def serve_forever(self, install_signal_handlers=True):
        """Run the daemon on this thread until drained (the CLI path).

        SIGTERM/SIGINT begin a graceful drain whose flight-recorder
        dump is tagged with the signal name.
        """
        async def runner():
            if install_signal_handlers:
                import signal
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    name = signal.Signals(signum).name.lower()
                    loop.add_signal_handler(
                        signum,
                        lambda reason=name: asyncio.ensure_future(
                            self._shutdown(reason)))
            await self._main()
        asyncio.run(runner())
        # what the drain left running finishes before the process exits
        self._worker.join()

    def start(self):
        """Run the daemon on a background thread; returns ``self`` once
        the port is bound (tests, the fuzz oracle, benchmarks)."""
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("query service failed to start")
        return self

    def stop(self, reason="stop"):
        """Drain and stop a :meth:`start`-ed daemon (idempotent)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown(reason), loop)
            future.result(timeout=self.drain_timeout + 30)
        if self._thread is not None:
            self._thread.join(timeout=30)

    async def _shutdown(self, reason):
        if self._draining:
            return
        self._draining = True
        deadline = self._loop.time() + self.drain_timeout
        while (self._inflight or self._outstanding) \
                and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        self._server.close()
        # Close every client connection explicitly: readline() in the
        # handlers returns EOF and they exit.  On Python >= 3.12.1,
        # Server.wait_closed() blocks until all handlers finish, so an
        # idle client holding its socket open would otherwise stall
        # the drain forever.  Responses already computed are flushed
        # before the transport sends FIN; a handler still waiting on
        # its worker past the drain deadline loses its reply — that is
        # the documented drain-deadline behavior.
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:  # pragma: no cover - already closing
                pass
        try:
            await asyncio.wait_for(self._server.wait_closed(),
                                   timeout=1.0)
        except asyncio.TimeoutError:  # pragma: no cover - zombie handler
            pass
        if self.hub is not None and not self.hub.closed:
            self.hub.close(dump_reason=reason)
        self._worker.shutdown()
        self._stopped.set()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer):
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode_message(
                        {"status": "error", "code": "oversized",
                         "error": "request line exceeds %d bytes"
                                  % protocol.MAX_LINE_BYTES}))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = protocol.decode_message(line)
                except ValueError as error:
                    writer.write(protocol.encode_message(
                        {"status": "error", "code": "bad_request",
                         "error": "unparseable request: %s" % error}))
                    await writer.drain()
                    continue
                try:
                    response = await self._dispatch(request)
                except Exception as error:
                    # An internal fault must produce an error reply,
                    # not kill the connection task with an unretrieved
                    # exception.
                    response = _internal_error({}, error)
                    if "id" in request:
                        response["id"] = request["id"]
                writer.write(protocol.encode_message(response))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request):
        op = request.get("op")
        base = {}
        if "id" in request:
            base["id"] = request["id"]
        self.requests += 1
        self._count(("serve.requests", str(op)))
        if op == "ping":
            return dict(base, status="ok", pong=True)
        if op == "status":
            return dict(base, status="ok", server=self._status_payload())
        if op == "shutdown":
            asyncio.ensure_future(self._shutdown(
                str(request.get("reason", "request"))))
            return dict(base, status="ok", draining=True)
        if op not in protocol.EXECUTED_OPS:
            return dict(base, status="error", code="unknown_op",
                        error="unknown op %r" % (op,))
        if self._draining:
            self.rejected += 1
            return dict(base, status="rejected", code="shutting_down",
                        error="server is draining", retry_after=None)
        if self._inflight >= self.max_inflight:
            self.rejected += 1
            self.db.metrics.inc("serve.rejected")
            return dict(base, status="rejected", code="overloaded",
                        error="admission queue is full "
                              "(%d in flight)" % self._inflight,
                        retry_after=self._retry_after())
        self._inflight += 1
        try:
            if op == "query":
                reply = await self._handle_query(request, base)
            else:
                reply = await self._handle_admitted(op, request, base)
        finally:
            self._inflight -= 1
        elapsed = reply.get("elapsed_seconds")
        if isinstance(elapsed, (int, float)):
            self._ewma_seconds = (0.8 * self._ewma_seconds
                                  + 0.2 * max(elapsed, 1e-4))
        self._count(("serve.responses", str(op),
                     reply.get("status", "ok")))
        return reply

    def _count(self, series, label_names=("op", "status")):
        """Bump ``(name, *label values)`` — by default ``(name, op[,
        status])`` — through a counter handle memoized as
        ``TelemetryHub._counter`` memoizes its own."""
        metrics = self.db.metrics
        if not metrics.enabled:
            return
        entry = self._counters.get(series)
        if entry is None or entry[0] is not metrics.counters:
            labels = dict(zip(label_names, series[1:]))
            entry = self._counters[series] = (
                metrics.counters, metrics.counter(series[0], labels))
        with metrics.lock:
            entry[1].inc()

    def _retry_after(self):
        backlog = self._inflight + 1
        return round(max(0.05, self._ewma_seconds * backlog), 4)

    def _status_payload(self):
        for _ in range(4):
            try:
                relations = sorted(self.db.catalog)
                break
            except RuntimeError:
                # The worker thread added a relation mid-iteration;
                # the dict is never left inconsistent, so retry.
                continue
        else:  # pragma: no cover - needs a pathological mutation storm
            relations = []
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "inflight": self._inflight,
            "outstanding": self._outstanding,
            "max_inflight": self.max_inflight,
            "draining": self._draining,
            "uptime_seconds": time.time() - self.started,
            "requests": self.requests,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "jobs": dict(self._jobs),
            "pending_relations": {name: sum(tokens.values())
                                  for name, tokens
                                  in self._pending.items() if tokens},
            "result_cache": self.cache.snapshot(),
            "relations": relations,
        }

    # -- epochs and identity -------------------------------------------------

    def _bump_epochs(self, names):
        for name in names:
            self._epochs[name] = self._epochs.get(name, 0) + 1
        if names:
            self.cache.invalidate_names(names)

    def _call_on_loop(self, fn):
        """Run ``fn`` on the event loop from the worker thread and
        return its result, or ``None`` if the loop is gone or
        unresponsive (shutdown races) — callers fall back to plain
        uncached execution."""
        done = concurrent.futures.Future()

        def runner():
            try:
                done.set_result(fn())
            except BaseException as error:
                done.set_exception(error)
        try:
            self._loop.call_soon_threadsafe(runner)
        except RuntimeError:  # pragma: no cover - loop already closed
            return None
        try:
            return done.result(timeout=10)
        except Exception:  # pragma: no cover - loop died mid-probe
            return None

    # -- admitted-op plumbing -------------------------------------------------

    async def _run_on_worker(self, worker, timeout, base,
                             pending_marks=(), pending_global=False,
                             predicted=None):
        """Run ``worker`` and answer its request: on the event loop
        when :meth:`_runs_inline` says so (``predicted`` is the op's
        last measured seconds, ``None`` when it has none), else on the
        worker thread, awaited with ``timeout``.

        ``pending_marks`` is a tuple of ``(relation name, token)``
        pairs taken *now* (admission) and released by :meth:`_finish`
        when the worker actually completes — which also applies the
        worker's effects on the loop, in completion order.  The job
        wakes the loop once: one ``call_soon_threadsafe`` callback runs
        :meth:`_finish` and resolves the awaited future.  A timeout
        answers early; a job still queued then never runs, a running
        one is never cancelled.
        """
        if self._runs_inline(predicted, timeout):
            return self._run_inline(worker, base)
        self._jobs["worker"] += 1
        self._count(("serve.jobs", "worker"), ("thread",))
        for name, token in pending_marks:
            bucket = self._pending.setdefault(name, {})
            bucket[token] = bucket.get(token, 0) + 1
        if pending_global:
            self._pending_global += 1
        self._outstanding += 1
        loop = asyncio.get_running_loop()
        done = loop.create_future()
        marks = tuple(pending_marks)

        def settle(reply, error):
            try:
                self._finish(reply, marks, pending_global)
            finally:
                if not done.done():  # else the request timed out
                    if error is None:
                        done.set_result(reply)
                    else:
                        done.set_exception(error)

        def job():
            reply = error = None
            try:
                reply = worker()
            except BaseException as caught:  # raised to the request
                error = caught
            try:
                loop.call_soon_threadsafe(settle, reply, error)
            except RuntimeError:  # pragma: no cover - loop closed
                pass  # post-drain zombie; nothing left to account for
        claim = self._worker.submit(job)
        try:
            reply = await asyncio.wait_for(done, timeout)
        except asyncio.TimeoutError:
            self.timeouts += 1
            self.db.metrics.inc("serve.timeouts")
            return dict(base, status="error", code="timeout",
                        error="request exceeded its %.3gs timeout "
                              "(the admission slot is released; the "
                              "operation may still complete "
                              "server-side)" % timeout)
        except Exception as error:  # pragma: no cover - defensive
            return _internal_error(base, error)
        finally:
            if done.cancelled() and claim.acquire(blocking=False):
                # Never started: it applies no effects, but its marks
                # and its outstanding count are released.
                self._finish(None, marks, pending_global)
        reply.pop("_effects", None)  # applied by _finish
        reply.update(base)
        return reply

    def _runs_inline(self, predicted, timeout):
        """Whether an op predicted at ``predicted`` seconds runs on the
        event loop rather than the worker thread.

        Only when no other op is outstanding: then the worker thread
        is idle, and admission order and the single writer hold by
        construction.  The prediction adds the last refresh time of
        every view stale now (``Database`` refreshes them all before
        the op) and must stay below ``sys.getswitchinterval()``, the
        longest a loop thread already waits for the GIL behind a
        running worker job, so a cache hit queued behind an inline op
        waits no longer than it could before.  An inline op cannot
        answer its ``timeout`` early, so a deadline the prediction does
        not clear sends the op to the worker, as does anything never
        measured.
        """
        if predicted is None or self._outstanding:
            return False
        refreshes = _refresh_seconds(_stale_views(self.db))
        if refreshes is None:
            return False
        predicted += refreshes
        if timeout is not None and not (
                isinstance(timeout, (int, float)) and timeout > predicted):
            return False
        return predicted < sys.getswitchinterval()

    def _run_inline(self, worker, base):
        """Run ``worker`` on the event loop and apply its effects at
        once: nothing else is outstanding, so this is its completion
        order too, and nothing else runs on the loop meanwhile, so it
        takes no pending marks."""
        self._jobs["loop"] += 1
        self._count(("serve.jobs", "loop"), ("thread",))
        self._outstanding += 1
        reply = None
        try:
            reply = worker()
        except Exception as error:
            return _internal_error(base, error)
        finally:
            self._finish(reply, (), False)
        reply.pop("_effects", None)  # applied by _finish
        reply.update(base)
        return reply

    def _finish(self, reply, pending_marks, pending_global):
        """Completion bookkeeping, on the event loop, in completion
        (= admission) order: release pending marks, then apply the
        worker's effects — epoch bumps, invalidation, cache stores.
        ``reply`` is ``None`` for a job that raised or never ran."""
        self._outstanding -= 1
        for name, token in pending_marks:
            bucket = self._pending.get(name)
            if bucket is None:
                continue
            remaining = bucket.get(token, 0) - 1
            if remaining > 0:
                bucket[token] = remaining
            else:
                bucket.pop(token, None)
            if not bucket:
                self._pending.pop(name, None)
        if pending_global:
            self._pending_global -= 1
        if reply is None:
            return
        effects = reply.get("_effects")
        if not effects:
            return
        cost = effects.get("cost")
        if cost is not None:
            kind, name, seconds = cost
            if kind == "mutation":
                self._mutation_seconds[name] = seconds
            else:
                memo = self._identity_memo.get(name)
                if memo is not None:
                    memo[3] = seconds
        if effects.get("identity"):
            self._identity_epoch += 1
        if effects.get("clear"):
            self.cache.clear()
        store = effects.get("store")
        if store is not None:
            # Read stamps are taken *here*, after every earlier op's
            # bumps and before any later op's — exactly the epochs the
            # query executed under.
            stamps = {name: self._epochs.get(name, 0)
                      for name in store["reads"]}
        self._bump_epochs(effects.get("bump", ()))
        if store is not None:
            # Heads are stamped *after* this query's own install bump:
            # the entry promises the catalog still holds this program's
            # head content, so a foreign program installing the same
            # head name later invalidates it.
            for name in store.get("heads", ()):
                stamps[name] = self._epochs.get(name, 0)
            self.cache.store(store["key"], store["payload"],
                             store["rows"], stamps)

    # -- query handling -------------------------------------------------------

    async def _handle_query(self, request, base):
        text = request.get("text")
        if not isinstance(text, str) or not text.strip():
            return dict(base, status="error", code="bad_request",
                        error="query op needs a 'text' string")
        timeout = request.get("timeout", self.default_timeout)
        debug_sleep = request.get("debug_sleep") if self.debug else None
        admitted = time.perf_counter()
        memo = self._identity_memo.get(text)
        if memo is None or memo[0] != self._identity_epoch:
            # Identity unknown (first sight, or invalidated by a
            # catalog change).  program_identity optimizes against the
            # live catalog, which the worker thread may be mutating
            # right now — so it must never run on the event loop.  The
            # worker computes it at this request's FIFO position
            # (serialized with every mutation), probes the cache there,
            # and executes on a miss.  The cache key is unknown until
            # then, but the heads the execution may install are not:
            # they are marked as foreign to every key.
            worker = self._deferred_query_worker(text, admitted,
                                                 debug_sleep)
            return await self._run_on_worker(
                worker, timeout, base, pending_marks=_deferred_marks(text))
        identity = memo[1]
        tier = "miss"
        if identity is not None and debug_sleep is None:
            key, reads, heads = identity
            if self._hit_blocked(key, reads, heads):
                tier = "bypass"
                self.cache.bypasses += 1
            else:
                entry = self.cache.lookup(key, self._epochs)
                if entry is not None:
                    elapsed = time.perf_counter() - admitted
                    self._record_cache_hit(text, key, entry, elapsed)
                    return dict(base, status="ok", cached=True,
                                rows=entry["rows"],
                                elapsed_seconds=elapsed,
                                result=entry["payload"])
        worker = self._query_worker(text, identity, tier, admitted,
                                    debug_sleep)
        marks = tuple((head, identity[0]) for head in identity[2]) \
            if identity is not None else ()
        return await self._run_on_worker(
            worker, timeout, base, pending_marks=marks,
            predicted=memo[3] if debug_sleep is None else None)

    def _hit_blocked(self, key, reads, heads):
        """May a cache hit for this program be served right now?

        Blocked (→ bypass to FIFO execution) when anything that could
        change the answer — or the catalog state a hit implicitly
        promises — is pending: a materialize anywhere, any pending op
        on a relation the program *reads*, or a **foreign** program
        (different or not yet known cache key) about to install one of
        this program's heads.  A pending execution of the *same*
        program does not block: its install is identical to what a
        re-execution of this request would produce, so the hit stays
        bit-identical to serial replay.
        """
        if self._pending_global:
            return True
        for name in reads:
            if self._pending.get(name):
                return True
        for name in heads:
            tokens = self._pending.get(name)
            if tokens and (len(tokens) > 1 or key not in tokens):
                return True
        return False

    def _deferred_query_worker(self, text, admitted, debug_sleep):
        """Worker for a query whose identity is not memoized.

        Runs on the pool thread: compute the identity (safe — every
        catalog mutation is serialized onto this same thread), memoize
        it and probe the cache on the event loop, then execute on a
        miss.  The probe happens at this request's FIFO position, so a
        hit there is bit-identical to serial replay: every op admitted
        earlier has completed and applied its effects, and nothing
        admitted later has run.
        """
        def run():
            try:
                identity = program_identity(self.db, text)
            except Exception:
                identity = None  # let execution surface the real error
            entry = self._call_on_loop(
                lambda: self._execution_probe(
                    text, identity, admitted, debug_sleep is not None))
            if entry is not None:
                return {"status": "ok", "cached": True,
                        "rows": entry["rows"],
                        "elapsed_seconds":
                            time.perf_counter() - admitted,
                        "result": entry["payload"]}
            return self._query_worker(text, identity, "miss", admitted,
                                      debug_sleep)()
        return run

    def _execution_probe(self, text, identity, admitted, skip_lookup):
        """On the event loop, at the calling worker job's FIFO
        position: memoize ``identity`` (the epoch is exact — every
        earlier op's effects are applied) and return a valid cache
        entry, if any, recording the hit in the query log."""
        if len(self._identity_memo) > 4 * self.cache.capacity:
            self._identity_memo.clear()
        self._identity_memo[text] = [self._identity_epoch, identity, None,
                                     None]
        if identity is None or skip_lookup:
            return None
        entry = self.cache.lookup(identity[0], self._epochs)
        if entry is not None:
            self._record_cache_hit(text, identity[0], entry,
                                   time.perf_counter() - admitted)
        return entry

    def _query_worker(self, text, identity, tier, admitted, debug_sleep):
        def run():
            queued = time.perf_counter() - admitted
            extra = None
            if self.hub is not None:
                extra = {"result_cache": tier, "queue_seconds": queued}
            if debug_sleep:
                original = self.db._query_plain

                def slow(query_text):
                    time.sleep(float(debug_sleep))
                    return original(query_text)
                self.db._query_plain = slow
            stale = _stale_views(self.db)
            start = time.perf_counter()
            error = None
            try:
                result = self.db.query(text, _record_extra=extra)
            except EmptyHeadedError as caught:
                error = caught
            finally:
                if debug_sleep:
                    del self.db.__dict__["_query_plain"]
            elapsed = time.perf_counter() - start
            effects = {"cost": ("query", text,
                                _own_seconds(elapsed, stale))}
            if error is not None:
                return {"status": "error", "code": "query_error",
                        "error": str(error),
                        "error_class": type(error).__name__,
                        "elapsed_seconds": elapsed, "_effects": effects}
            payload = protocol.payload_from_relation(result.relation,
                                                     self.db._dictionary)
            reply = {"status": "ok", "cached": False,
                     "rows": int(result.count),
                     "elapsed_seconds": elapsed, "result": payload,
                     "_effects": effects}
            if identity is not None:
                key, reads, heads = identity
                effects["bump"] = list(heads)
                # Bypass executions may store too: stamps are read at
                # _finish in completion order, so the entry records
                # exactly the epochs this execution ran under and any
                # later-completing mutation still invalidates it.
                if tier in ("miss", "bypass"):
                    effects["store"] = {"key": key, "reads": reads,
                                        "heads": heads,
                                        "payload": payload,
                                        "rows": int(result.count)}
            return reply
        return run

    def _record_cache_hit(self, text, key, entry, elapsed):
        """Synthesize a schema-valid query-log record for a hit served
        straight off the event loop (no execution, no plan cache).
        What every hit of ``text`` shares is built once, on its
        identity memo entry; a hit stamps its id, time, elapsed time
        and row count."""
        hub = self.hub
        if hub is None:
            return
        memo = self._identity_memo.get(text)
        fields = memo[2] if memo is not None else None
        if fields is None:
            fields = self._hit_fields(text, key)
            if memo is not None:
                memo[2] = fields
        record = dict(fields)
        record["query_id"] = hub.next_query_id()
        record["ts"] = time.time()
        record["elapsed_seconds"] = elapsed
        record["rows"] = entry["rows"]
        hub.record_query(record)

    def _hit_fields(self, text, key):
        """The query-log record of a hit on ``text``, in schema order,
        with the per-hit fields left to stamp."""
        signature = config_signature(self.db.config)
        digest = self.db._signature_memo.get(signature)
        if digest is None:
            digest = self.db._signature_memo[signature] = \
                key_digest(signature)
        return {
            "schema_version": QUERY_LOG_VERSION,
            "query_id": None,
            "ts": None,
            "pid": os.getpid(),
            "status": "ok",
            "text_sha": text_digest(text),
            "text": text if len(text) <= 2048 else text[:2048],
            "execution_mode": self.db.config.execution_mode,
            "config_signature": digest,
            "cache_key": key,
            "elapsed_seconds": None,
            "rows": None,
            # No plan_cache field: a served hit never touches the plan
            # cache, and inventing a sentinel tier would pollute the
            # telemetry.plan_cache counter series.
            "result_cache": "hit",
            "queue_seconds": 0.0,
        }

    # -- mutation / catalog ops ----------------------------------------------

    async def _handle_admitted(self, op, request, base):
        timeout = request.get("timeout", self.default_timeout)
        name = request.get("name")
        if not isinstance(name, str):
            return dict(base, status="error", code="bad_request",
                        error="%s op needs a 'name' string" % op)
        marks = ((name, _MUTATION),)
        if op in ("append", "delete"):
            worker = self._mutation_worker(op, name, request)
            return await self._run_on_worker(
                worker, timeout, base, pending_marks=marks,
                predicted=self._mutation_seconds.get(name))
        if op == "add_relation":
            worker = self._add_relation_worker(name, request)
            return await self._run_on_worker(worker, timeout, base,
                                             pending_marks=marks)
        if op == "materialize":
            worker = self._materialize_worker(name, request)
            return await self._run_on_worker(worker, timeout, base,
                                             pending_marks=marks,
                                             pending_global=True)
        worker = self._relation_worker(name)  # op == "relation"
        return await self._run_on_worker(worker, timeout, base)

    def _mutation_worker(self, op, name, request):
        tuples = [tuple(row) for row in request.get("tuples", ())]
        annotations = request.get("annotations")
        combine = request.get("combine", "last")

        def run():
            stale = _stale_views(self.db)
            start = time.perf_counter()
            # Only new dictionary entries can change a program's
            # identity, and a delete never adds one.
            sizes = _dictionary_sizes(self.db, name)

            def grew():
                return op == "append" \
                    and _dictionary_sizes(self.db, name) != sizes
            error = None
            try:
                if op == "append":
                    changed = self.db.append(name, tuples,
                                             annotations=annotations,
                                             combine=combine)
                else:
                    changed = self.db.delete(name, tuples)
            except EmptyHeadedError as caught:
                error = caught
            elapsed = time.perf_counter() - start
            # a batch rejected mid-way may have encoded its earlier
            # rows' values already
            effects = {"identity": grew(),
                       "cost": ("mutation", name,
                                _own_seconds(elapsed, stale))}
            if error is not None:
                return {"status": "error", "code": "mutation_error",
                        "error": str(error),
                        "error_class": type(error).__name__,
                        "elapsed_seconds": elapsed, "_effects": effects}
            effects["bump"] = [name] if changed else []
            return {"status": "ok", "changed": int(changed),
                    "elapsed_seconds": elapsed, "_effects": effects}
        return run

    def _add_relation_worker(self, name, request):
        tuples = [tuple(row) for row in request.get("tuples", ())]
        annotations = request.get("annotations")
        arity = request.get("arity")
        combine = request.get("combine", "last")

        def run():
            start = time.perf_counter()
            try:
                relation = self.db.add_relation(
                    name, tuples, annotations=annotations,
                    combine=combine, arity=arity)
            except EmptyHeadedError as error:
                return {"status": "error", "code": "mutation_error",
                        "error": str(error),
                        "error_class": type(error).__name__,
                        "elapsed_seconds": time.perf_counter() - start,
                        "_effects": {"identity": True}}
            return {"status": "ok", "rows": int(relation.cardinality),
                    "elapsed_seconds": time.perf_counter() - start,
                    "_effects": {"identity": True, "bump": [name]}}
        return run

    def _materialize_worker(self, name, request):
        text = request.get("text", "")

        def run():
            start = time.perf_counter()
            try:
                result = self.db.materialize(name, text)
            except EmptyHeadedError as error:
                return {"status": "error", "code": "query_error",
                        "error": str(error),
                        "error_class": type(error).__name__,
                        "elapsed_seconds": time.perf_counter() - start,
                        "_effects": {"identity": True, "clear": True}}
            return {"status": "ok", "rows": int(result.count),
                    "elapsed_seconds": time.perf_counter() - start,
                    "_effects": {"identity": True, "clear": True,
                                 "bump": [name]}}
        return run

    def _relation_worker(self, name):
        def run():
            start = time.perf_counter()
            try:
                relation = self.db.relation(name)
            except EmptyHeadedError as error:
                return {"status": "error", "code": "unknown_relation",
                        "error": str(error),
                        "error_class": type(error).__name__,
                        "elapsed_seconds": time.perf_counter() - start}
            payload = protocol.payload_from_relation(relation,
                                                     self.db._dictionary)
            return {"status": "ok", "rows": int(relation.cardinality),
                    "elapsed_seconds": time.perf_counter() - start,
                    "result": payload}
        return run


class _Worker:
    """The one thread every admitted op that does not run on the event
    loop runs on, in submission order.

    Each job comes with a *claim*: a lock that the worker takes before
    it runs the job, and that the event loop takes instead to withdraw
    a job whose request timed out while queued — whoever takes it
    first decides, so a withdrawn job never runs and a started one is
    never withdrawn.  Started on first use; :meth:`shutdown` lets the
    queued jobs finish and then ends the thread.  A daemon thread, so
    a service never stopped does not keep its process alive.
    """

    def __init__(self):
        self._jobs = queue.SimpleQueue()
        self._thread = None

    def submit(self, job):
        """Queue ``job``; returns its claim."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._drain,
                                            name="repro-serve",
                                            daemon=True)
            self._thread.start()
        claim = threading.Lock()
        self._jobs.put((job, claim))
        return claim

    def _drain(self):
        while True:
            job, claim = self._jobs.get()
            if job is None:
                return
            if claim.acquire(blocking=False):
                job()

    def shutdown(self):
        """End the thread once the jobs queued before this have run."""
        self._jobs.put((None, None))

    def join(self, timeout=None):
        """Wait for the thread to end (after :meth:`shutdown`)."""
        if self._thread is not None:
            self._thread.join(timeout)


def _dictionary_sizes(db, name):
    """Entry counts of relation ``name``'s column dictionaries (empty
    for an unknown or dictionary-free relation)."""
    relation = db.catalog.get(name)
    dictionaries = getattr(relation, "dictionaries", None) or ()
    return [len(d) for d in dictionaries if d is not None]


def _internal_error(base, error):
    """The reply to a request whose handling raised ``error``."""
    return dict(base, status="error", code="internal",
                error="%s: %s" % (type(error).__name__, error),
                error_class=type(error).__name__)


def _stale_views(db):
    """The materialized views the next op on ``db`` refreshes first."""
    return [view for view in db._views.values() if view.stale] \
        if db._views else []


def _refresh_seconds(views):
    """Predicted seconds to refresh ``views``: their last refresh
    times, or ``None`` when one has never been refreshed."""
    total = 0.0
    for view in views:
        if view.refresh_seconds is None:
            return None
        total += view.refresh_seconds
    return total


def _own_seconds(elapsed, stale):
    """An op's ``elapsed`` seconds less the refreshes of the views that
    were ``stale`` before it (each records its last refresh time)."""
    return max(0.0, elapsed - sum(view.refresh_seconds or 0.0
                                  for view in stale))


def _deferred_marks(text):
    """Pending marks for a query whose identity is not memoized: each
    head its text names, with the :data:`_DEFERRED` token.  Parsing
    reads no catalog, so this is safe on the event loop; a program
    that does not parse installs nothing and marks nothing."""
    try:
        rules = parse(text).rules
    except EmptyHeadedError:
        return ()
    return tuple((head, _DEFERRED)
                 for head in dict.fromkeys(rule.head_name
                                           for rule in rules))


def main(argv=None):
    """``python -m repro.serve`` — forwards to ``repro serve``."""
    from ..cli import main as cli_main
    argv = sys.argv[1:] if argv is None else argv
    return cli_main(["serve"] + list(argv))
