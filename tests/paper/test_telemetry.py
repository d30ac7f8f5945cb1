"""Telemetry: off by default, result-neutral, valid artifacts.

The continuous-telemetry pipeline (:mod:`repro.obs.telemetry`) wraps
every query with a write-ahead journal entry, a structured log record
and lifetime series updates.  It is off unless asked for, never
changes an answer, and what it writes passes the in-tree schema
checkers.  Its cost (at most 2% of wall time on the interpreter, 300
us per query on the default engine) is a clock reading, gated in
``benchmarks/floors.py``.
"""

import os

import pytest

from repro import Database
from repro.graphs import FOUR_CLIQUE_COUNT, TRIANGLE_COUNT, uniform_graph

ROWS = ["off", "telemetry", "telemetry+disk"]

QUERIES = (TRIANGLE_COUNT, FOUR_CLIQUE_COUNT)


@pytest.fixture(scope="module")
def telemetry_dbs(tmp_path_factory):
    """One warmed interpreted Database per row, on uniform(120 nodes,
    480 edges): no telemetry, a memory-only hub, and the full pipeline
    writing to a temporary directory."""
    edges = [tuple(e) for e in uniform_graph(120, 480, seed=13)]
    databases = {}
    for label in ROWS:
        db = Database(execution_mode="interpreted")
        db.load_graph("Edge", edges, prune=True)
        for query in QUERIES:
            db.query(query)
        if label == "telemetry":
            db.enable_telemetry()
        elif label == "telemetry+disk":
            db.enable_telemetry(
                directory=str(tmp_path_factory.mktemp("telemetry")))
        databases[label] = db
    yield databases
    for db in databases.values():
        db.disable_telemetry()


def test_off_by_default():
    """No hub unless asked for: ``query`` dispatches on one ``is
    None`` test and never touches telemetry code."""
    db = Database()
    assert db.config.telemetry is None
    assert db.telemetry is None


def test_results_identical_with_telemetry(telemetry_dbs):
    for query in QUERIES:
        results = {label: telemetry_dbs[label].query(query).scalar
                   for label in ROWS}
        assert len(set(results.values())) == 1, results


def test_artifacts_are_valid(telemetry_dbs):
    """A schema-clean query log and strictly valid OpenMetrics
    exposition."""
    from repro.obs.openmetrics import validate_openmetrics
    from repro.obs.telemetry import validate_query_log
    db = telemetry_dbs["telemetry+disk"]
    for _ in range(2):
        for query in QUERIES:
            db.query(query)
    hub = db.telemetry
    count, problems = validate_query_log(
        os.path.join(hub.directory, "queries.jsonl"))
    assert problems == []
    assert count >= 4
    path = hub.write_openmetrics()
    with open(path) as handle:
        assert validate_openmetrics(handle.read()) == []
