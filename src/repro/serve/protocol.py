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


def encode_message(message):
    """One JSON line, ready to write to the socket."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_message(line):
    """Parse one request/response line; raises ``ValueError`` on
    garbage (non-JSON, or a non-object)."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def _plain(value):
    """JSON-safe form of one decoded tuple element (numpy scalars
    collapse to their Python value; everything else passes through)."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (str, bytes)):
        return item()
    return value


def normalize_relation(relation, fallback_dictionary):
    """Collapse a stored :class:`~repro.storage.relation.Relation` to
    an engine-independent ``(kind, value)`` — decoded tuples, plain
    floats — matching the fuzzer's normalization."""
    if relation.arity == 0:
        if relation.annotations is not None:
            return "scalar", float(relation.annotations[0])
        return "exists", relation.cardinality > 0
    dictionaries = relation.dictionaries
    if dictionaries is None:
        dictionaries = [fallback_dictionary] * relation.arity
    rows = list(zip(*([_plain(value) for value in column]
                      for column in relation.decoded_columns(
                          dictionaries=dictionaries))))
    if relation.annotations is not None:
        return "map", dict(zip(rows, relation.annotations.tolist()))
    return "set", frozenset(rows)


def payload_from_relation(relation, fallback_dictionary):
    """Normalized JSON payload of a relation (see module docstring)."""
    kind, value = normalize_relation(relation, fallback_dictionary)
    if kind == "scalar":
        return {"kind": "scalar", "value": value}
    if kind == "exists":
        return {"kind": "exists", "value": value}
    if kind == "set":
        return {"kind": "set",
                "rows": sorted((list(row) for row in value), key=repr)}
    return {"kind": "map",
            "items": sorted(([list(row), annotation]
                             for row, annotation in value.items()),
                            key=repr)}


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
