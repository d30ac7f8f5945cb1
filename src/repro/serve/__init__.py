"""Query service layer: a long-lived daemon wrapping one ``Database``.

EmptyHeaded's compiled-query design (parse → GHD → codegen amortized
across runs, §3.3) only pays off when plans and tries stay warm across
many requests.  This package keeps them warm: :class:`~repro.serve.
server.QueryService` holds a single :class:`~repro.api.Database` —
with its plan cache, trie cache, and GHD band memo — behind a
newline-delimited-JSON socket protocol (:mod:`repro.serve.protocol`),
adds an admission-controlled request
queue with per-query timeouts and 429-style backpressure, layers a
keyed **result cache** on top (:mod:`repro.serve.cache`, invalidated
surgically by the PR 9 versioned-catalog mutation path), and drains
gracefully on shutdown.  :class:`~repro.serve.client.ServeClient` is
the blocking client the tests, the fuzzer's ``--serve`` oracle, and
the ``serve_mixed`` workload of ``benchmarks/e2e`` all use.

Start one from the CLI (``repro serve --dataset patents``), or
in-process::

    from repro import Database
    from repro.serve import QueryService, ServeClient

    db = Database()
    db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
    service = QueryService(db).start()
    with ServeClient(port=service.port) as client:
        reply = client.query("T(x,y) :- Edge(x,y).")
    service.stop()

See ``docs/serving.md`` for the protocol and the consistency contract.
"""

from .cache import ResultCache, program_identity
from .client import ServeClient
from .server import QueryService

__all__ = ["QueryService", "ServeClient", "ResultCache",
           "program_identity"]
