"""Blocking client for the query service (tests, fuzzer, benchmarks).

One :class:`ServeClient` is one TCP connection speaking the
newline-delimited-JSON protocol of :mod:`repro.serve.protocol`.  It is
deliberately synchronous — one request, one reply, in order — because
every consumer in this repo (the concurrency tests, the fuzzer's
``--serve`` oracle, ``benchmarks/e2e``) wants per-request latencies and
deterministic interleaving; concurrency comes from running many
clients, not from pipelining one.

Not thread-safe: share nothing, give each thread its own client.
"""

import socket
import time

from . import protocol


class ServeError(RuntimeError):
    """An ``error``/``rejected`` reply surfaced as an exception (only
    by :meth:`ServeClient.call` with ``check=True``)."""

    def __init__(self, reply):
        super().__init__(reply.get("error", reply.get("status")))
        self.reply = reply
        self.code = reply.get("code")


class ServeClient:
    """Blocking NDJSON client; usable as a context manager."""

    def __init__(self, host="127.0.0.1", port=None, timeout=30.0):
        if port is None:
            raise ValueError("ServeClient needs the daemon's port")
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def call(self, op, check=False, **fields):
        """Send one request, return the decoded reply.

        ``check=True`` raises :class:`ServeError` on ``error`` /
        ``rejected`` replies instead of returning them.
        """
        request = dict(fields, op=op)
        self._sock.sendall(protocol.encode_message(request))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = protocol.decode_message(line)
        if check and reply.get("status") != "ok":
            raise ServeError(reply)
        return reply

    # Convenience wrappers — thin, so tests can still reach call()
    # directly for malformed-request cases.

    def ping(self):
        return self.call("ping")

    def status(self):
        return self.call("status", check=True)["server"]

    def query(self, text, **fields):
        return self.call("query", text=text, **fields)

    def append(self, name, tuples, **fields):
        return self.call("append", name=name,
                         tuples=[list(row) for row in tuples], **fields)

    def delete(self, name, tuples, **fields):
        return self.call("delete", name=name,
                         tuples=[list(row) for row in tuples], **fields)

    def add_relation(self, name, tuples, **fields):
        return self.call("add_relation", name=name,
                         tuples=[list(row) for row in tuples], **fields)

    def materialize(self, name, text, **fields):
        return self.call("materialize", name=name, text=text, **fields)

    def relation(self, name, **fields):
        return self.call("relation", name=name, **fields)

    def shutdown(self, reason="request"):
        return self.call("shutdown", reason=reason)

    def call_with_retry(self, op, attempts=10, max_wait=5.0, **fields):
        """Honor backpressure: on ``rejected``, sleep the server's
        ``retry_after`` hint and retry (load generators use this)."""
        last = None
        for _ in range(attempts):
            reply = self.call(op, **fields)
            if reply.get("status") != "rejected":
                return reply
            last = reply
            wait = reply.get("retry_after") or 0.05
            time.sleep(min(float(wait), max_wait))
        return last
