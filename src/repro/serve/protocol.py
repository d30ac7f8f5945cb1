"""Wire protocol of the query service: newline-delimited JSON.

One request per line, one response per line, both UTF-8 JSON objects.
Requests carry ``op`` plus op-specific fields (and an optional ``id``
echoed back verbatim so clients can pipeline); responses carry
``status`` — ``"ok"``, ``"error"`` (with ``error``/``error_class``/
``code``), or ``"rejected"`` (backpressure, with ``retry_after``
seconds).

Ops
---
``query``
    ``text`` (program), optional ``timeout`` seconds.  Reply:
    ``rows``, ``elapsed_seconds``, ``cached`` (result-cache hit?), and
    ``result`` — the last head in the normalized payload form below.
``append`` / ``delete``
    ``name``, ``tuples`` (list of rows), optional ``annotations`` /
    ``combine``.  Reply: ``changed`` row count.
``add_relation``
    ``name``, ``tuples``, optional ``annotations`` / ``arity`` /
    ``combine``.
``materialize``
    ``name``, ``text`` — register a materialized view.
``relation``
    ``name`` — fetch a stored relation as a normalized payload
    (executed in admission order, so it reads post-mutation state).
``status`` / ``ping``
    Introspection; never admission-controlled.
``shutdown``
    Begin a graceful drain; the reply acknowledges before the drain
    completes.

Result payloads
---------------
Relations normalize to a JSON-safe ``kind``-tagged object mirroring
the fuzzer's engine-independent form, so differential comparison
against direct :class:`~repro.api.Database` execution is lossless:

* ``{"kind": "scalar", "value": float}`` — 0-ary annotated result;
* ``{"kind": "exists", "value": bool}`` — 0-ary set result;
* ``{"kind": "set", "rows": [[v, ...], ...]}`` — decoded tuples;
* ``{"kind": "map", "items": [[[v, ...], float], ...]}`` — decoded
  tuples with annotations.

Rows and items follow the relation's canonical order (by encoded key,
not decoded value), so compare payloads as sets
(:func:`payload_to_outcome`).  A payload is serialized once
(:class:`Payload`): the executing reply and every hit carry its bytes.
"""

import json

#: Protocol version, reported by ``status``.
PROTOCOL_VERSION = 1

#: Hard ceiling on one request/response line (defends the daemon
#: against unframed garbage on the socket).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Ops that go through admission control and the executor.
EXECUTED_OPS = ("query", "append", "delete", "add_relation",
                "materialize", "relation")

#: Ops answered immediately on the event loop.
IMMEDIATE_OPS = ("ping", "status", "shutdown")


class Payload(dict):
    """A result payload whose JSON fragment the first
    :func:`encode_message` that carries it memoizes for every later
    reply (cache hits included)."""

    fragment = None


#: Messages are never circular: skip the per-container cycle check.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                           check_circular=False).encode

#: Stands in for a memoized payload while the rest of a reply is dumped.
_MARK = "\x00payload\x00"
_MARK_JSON = _encode(_MARK)


def encode_message(message):
    """One JSON line, ready to write to the socket.  A :class:`Payload`
    under ``result`` is spliced in from its memoized fragment; the line
    is byte-identical to dumping the whole message."""
    payload = message.get("result")
    if type(payload) is Payload:
        if payload.fragment is None:
            payload.fragment = _encode(payload)
        head, mark, tail = _encode(dict(message, result=_MARK)) \
            .partition(_MARK_JSON)
        if mark and _MARK_JSON not in tail:  # no other value holds it
            return (head + payload.fragment + tail + "\n").encode("utf-8")
    return (_encode(message) + "\n").encode("utf-8")


def decode_message(line):
    """Parse one request/response line; raises ``ValueError`` on
    garbage (non-JSON, or a non-object)."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def payload_from_relation(relation):
    """Normalized JSON payload of a relation (see module docstring),
    decoded column by column as ``Result.tuples()`` decodes it (a
    relation without dictionaries travels as its raw keys), rows in
    canonical order: sorted by encoded key and duplicate-free (a
    result that arrives that way is not re-sorted)."""
    if relation.arity == 0:
        if relation.annotations is not None:
            return Payload(kind="scalar",
                           value=float(relation.annotations[0]))
        return Payload(kind="exists", value=relation.cardinality > 0)
    relation = relation.deduplicated()
    rows = list(map(list, zip(*relation.decoded_columns())))
    if relation.annotations is None:
        return Payload(kind="set", rows=rows)
    return Payload(kind="map", items=list(map(
        list, zip(rows, relation.annotations.tolist()))))


def payload_to_outcome(payload):
    """Inverse of :func:`payload_from_relation`: reconstruct the
    fuzzer's normalized ``(kind, value)`` from a wire payload."""
    kind = payload["kind"]
    if kind == "scalar":
        return "scalar", float(payload["value"])
    if kind == "exists":
        return "exists", bool(payload["value"])
    if kind == "set":
        return "set", frozenset(tuple(row) for row in payload["rows"])
    return "map", {tuple(row): float(annotation)
                   for row, annotation in payload["items"]}
