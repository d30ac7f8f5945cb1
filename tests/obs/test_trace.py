"""Span tracer: nesting, disabled path, Chrome export, lane attribution."""

import json

import pytest

from repro import Database
from repro.obs.export import (lane_tids, span_nesting_problems, to_chrome,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.trace import NULL_SPAN, Tracer, maybe_span

from tests.conftest import random_undirected_edges

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")


def traced_db(mode, **overrides):
    db = Database(execution_mode=mode, **overrides)
    db.load_graph("Edge", random_undirected_edges(30, 90, seed=3),
                  prune=True)
    tracer = db.enable_tracing()
    return db, tracer


class TestTracerUnit:
    def test_spans_nest_with_depth(self):
        tracer = Tracer()
        with tracer.span("outer", "query"):
            with tracer.span("inner", "compile", detail=7):
                pass
        assert len(tracer) == 2
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].args == {"detail": 7}
        # The child closes first and lies inside the parent interval.
        assert by_name["outer"].start <= by_name["inner"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_reset_clears_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.lanes() == []

    def test_record_on_worker_lane(self):
        tracer = Tracer()
        t0 = tracer.now()
        tracer.record("morsel:0", "execute", t0, t0 + 0.5,
                      lane="worker-1")
        assert tracer.lanes() == ["worker-1"]
        (span,) = tracer.find(name="morsel:0")
        assert span.seconds == pytest.approx(0.5)

    def test_maybe_span_without_tracer_is_shared_null(self):
        assert maybe_span(None, "x") is NULL_SPAN
        with maybe_span(None, "x") as span:
            assert span is None

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        tracer.enabled = False
        assert maybe_span(tracer, "x") is NULL_SPAN
        with maybe_span(tracer, "x"):
            pass
        assert len(tracer) == 0


class TestQueryTracing:
    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_span_tree_covers_the_lifecycle(self, mode):
        db, tracer = traced_db(mode)
        db.query(TRIANGLES)
        names = {s.name for s in tracer.spans}
        assert "query" in names
        assert "parse" in names
        assert "ghd_search" in names
        assert "attribute_order" in names
        assert any(n.startswith("rule:") for n in names)
        assert any(n.startswith("bag:") for n in names)
        if mode == "compiled":
            assert "codegen" in names
            assert "plan_cache.lookup" in names

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_chrome_export_is_valid(self, mode, tmp_path):
        db, tracer = traced_db(mode)
        db.query(TRIANGLES)
        payload = to_chrome(tracer)
        assert validate_chrome_trace(payload) == []
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_plan_cache_hit_is_annotated(self):
        db, tracer = traced_db("compiled")
        db.query(TRIANGLES)
        tracer.reset()
        db.query(TRIANGLES)
        # Second run: program cache hit upstream of the rule cache, so
        # either no lookup happens (program tier) or it reports a hit.
        lookups = tracer.find(name="plan_cache.lookup")
        assert all(s.args.get("hit") for s in lookups)

    def test_intersection_spans_only_when_opted_in(self):
        # Interpreted mode explicitly: compiled specialized pair
        # kernels legitimately bypass the generic intersection hook.
        db = Database(execution_mode="interpreted")
        db.load_graph("Edge", random_undirected_edges(30, 90, seed=3),
                      prune=True)
        tracer = db.enable_tracing(capture_intersections=True)
        db.query(TRIANGLES)
        assert tracer.find(cat="intersect")
        default_db, default_tracer = traced_db("interpreted")
        default_db.query(TRIANGLES)
        assert default_tracer.find(cat="intersect") == []


class TestLaneAttribution:
    def test_lane_tids_are_stable(self):
        assert lane_tids(["main", "worker-2", "worker-0"]) == \
            {"main": 0, "worker-0": 1, "worker-2": 2}


class TestNestingValidator:
    def _event(self, ts, dur, tid=0, name="s"):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                "pid": 1, "tid": tid, "cat": "query"}

    def test_accepts_disjoint_and_nested(self):
        events = [self._event(0, 100, name="parent"),
                  self._event(10, 20, name="child"),
                  self._event(200, 50, name="next")]
        assert span_nesting_problems(events) == []

    def test_rejects_partial_overlap(self):
        events = [self._event(0, 100, name="a"),
                  self._event(50, 100, name="b")]
        problems = span_nesting_problems(events)
        assert problems and "overlap" in problems[0]

    def test_lanes_are_independent(self):
        events = [self._event(0, 100, tid=0),
                  self._event(50, 100, tid=1)]
        assert span_nesting_problems(events) == []


class TestEnvVar:
    def test_repro_trace_path(self, monkeypatch, tmp_path):
        path = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)], prune=True)
        db.query(TRIANGLES)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"]

    def test_repro_trace_flag_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)], prune=True)
        db.query(TRIANGLES)
        assert db.tracer is not None
        assert len(db.tracer) > 0


class TestDisabledTracerZeroAllocation:
    """Micro-benchmark for the engine's tracing overhead.

    Every engine instrumentation point goes through ``maybe_span``
    whose disabled path returns the shared ``NULL_SPAN``.  With tracing
    off, a full query must therefore allocate *zero* bytes inside
    ``repro/obs/trace.py`` — asserted here with ``tracemalloc``
    filtered to that file.
    """

    @staticmethod
    def _trace_module_bytes(db, query):
        import tracemalloc

        from repro.obs import trace as trace_module
        trace_file = trace_module.__file__
        db.query(query)  # warm tries and plan caches
        tracemalloc.start()
        try:
            tracemalloc.clear_traces()
            db.query(query)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, trace_file)]).statistics("filename")
        return sum(stat.size for stat in stats)

    def test_untraced_query_allocates_nothing(self):
        db = Database()
        db.load_graph("Edge", random_undirected_edges(40, 160, seed=6),
                      prune=True)
        assert db.tracer is None
        assert self._trace_module_bytes(db, TRIANGLES) == 0

    def test_enabled_tracer_is_visible_to_the_probe(self):
        """Sanity for the measurement: the same probe reports nonzero
        span allocations once tracing is on, proving the zero above is
        a real zero and not a filtering artifact."""
        db = Database()
        db.load_graph("Edge", random_undirected_edges(40, 160, seed=6),
                      prune=True)
        db.enable_tracing()
        assert self._trace_module_bytes(db, TRIANGLES) > 0
