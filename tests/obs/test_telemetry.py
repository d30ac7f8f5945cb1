"""Telemetry pipeline: query log, hub aggregation, promotion, top."""

import json
import os

import pytest

from repro import Database
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (QUERY_LOG_VERSION, RotatingJsonlSink,
                                 TelemetryHub, key_digest,
                                 read_query_log, render_top,
                                 text_digest, validate_query_log,
                                 validate_query_record)
from repro.obs.telemetry import main as telemetry_main

from tests.conftest import random_undirected_edges

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")


def make_record(index=0, **overrides):
    record = {
        "schema_version": QUERY_LOG_VERSION,
        "query_id": "q%08d-1" % (index + 1),
        "ts": 1000.0 + index,
        "pid": os.getpid(),
        "status": "ok",
        "text_sha": text_digest("q%d" % index),
        "text": "q%d" % index,
        "execution_mode": "compiled",
        "config_signature": key_digest(("sig",)),
        "elapsed_seconds": 0.01 * (index + 1),
        "rows": 5,
        "plan_cache": "hit",
    }
    record.update(overrides)
    return record


class TestSchema:
    def test_valid_record_passes(self):
        assert validate_query_record(make_record()) == []

    def test_missing_required_field_is_reported(self):
        record = make_record()
        del record["query_id"]
        assert any("query_id" in p for p in
                   validate_query_record(record))

    def test_wrong_type_is_reported(self):
        record = make_record(rows="many")
        assert any("rows" in p for p in validate_query_record(record))

    def test_unknown_field_is_reported(self):
        record = make_record(surprise=1)
        assert any("surprise" in p for p in
                   validate_query_record(record))

    def test_log_with_worker_fields_still_validates(self):
        """A version-1 log written while the forked scheduler existed
        carries ``morsels``/``steals``/``workers``; it still reads."""
        record = make_record(morsels=8, steals=2, workers=4)
        assert validate_query_record(record) == []

    def test_log_with_tuner_fields_still_validates(self):
        """A version-1 log written while the self-tuner existed carries
        ``replans``/``mispredict_ratio``; it still reads."""
        record = make_record(replans=1, mispredict_ratio=9.5)
        assert validate_query_record(record) == []

    def test_log_with_fused_fallbacks_still_validates(self, tmp_path):
        """A version-1 log written while the default engine could hand a
        bag to the interpreter carries ``fused_fallbacks``; it still
        reads, and nothing writes it any more."""
        record = make_record(fused_blocks=2, fused_fallbacks=1)
        assert validate_query_record(record) == []
        db = Database(execution_mode="compiled")
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
        db.enable_telemetry(directory=str(tmp_path))
        db.query(TRIANGLES)
        db.disable_telemetry()
        written, = read_query_log(str(tmp_path / "queries.jsonl"))
        assert written["fused_blocks"] == 1
        assert "fused_fallbacks" not in written

    def test_inflight_form_may_omit_post_execution_fields(self):
        record = make_record(status="inflight")
        del record["elapsed_seconds"]
        del record["rows"]
        assert validate_query_record(record, inflight=True) == []
        assert validate_query_record(record) != []

    def test_unknown_status_and_version(self):
        assert validate_query_record(make_record(status="odd"))
        assert validate_query_record(make_record(schema_version=99))

    def test_validate_query_log_counts_and_flags(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(make_record(0)) + "\n")
            handle.write("not json\n")
            handle.write(json.dumps(make_record(2, rows=None)) + "\n")
        count, problems = validate_query_log(str(path))
        assert count == 2
        assert any("line 2" in p for p in problems)
        assert any("line 3" in p for p in problems)

    def test_cli_validator(self, tmp_path, capsys):
        path = tmp_path / "queries.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(make_record()) + "\n")
        assert telemetry_main([str(path)]) == 0
        assert "valid query log" in capsys.readouterr().out
        with open(path, "w") as handle:
            handle.write("{}\n")
        assert telemetry_main([str(path)]) == 1


class TestRotatingSink:
    def test_appends_one_line_per_record(self, tmp_path):
        sink = RotatingJsonlSink(str(tmp_path / "q.jsonl"))
        sink.append({"a": 1})
        sink.append({"a": 2})
        sink.close()
        lines = open(tmp_path / "q.jsonl").read().splitlines()
        assert [json.loads(line)["a"] for line in lines] == [1, 2]

    def test_rotates_at_size_and_drops_past_backups(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        sink = RotatingJsonlSink(path, max_bytes=64, backups=2)
        for index in range(40):
            sink.append(make_record(index))
        sink.close()
        names = sorted(os.listdir(tmp_path))
        assert names == ["q.jsonl", "q.jsonl.1", "q.jsonl.2"]

    def test_read_query_log_walks_rotation_oldest_first(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        sink = RotatingJsonlSink(path, max_bytes=600, backups=5)
        for index in range(12):
            sink.append(make_record(index))
        sink.close()
        records = read_query_log(path)
        ids = [record["query_id"] for record in records]
        assert ids == sorted(ids)
        assert len(ids) == 12
        assert read_query_log(path, limit=3) == records[-3:]


class TestHub:
    def test_record_query_aggregates_labeled_series(self):
        hub = TelemetryHub()
        hub.record_query(make_record(0, execution_mode="compiled"))
        hub.record_query(make_record(1, execution_mode="interpreted",
                                     plan_cache="miss"))
        snap = hub.registry.snapshot()
        counters = snap["counters"]
        assert counters["telemetry.queries{mode=compiled,status=ok}"] \
            == 1
        assert counters[
            "telemetry.queries{mode=interpreted,status=ok}"] == 1
        assert counters["telemetry.plan_cache{tier=hit}"] == 1
        assert counters["telemetry.plan_cache{tier=miss}"] == 1
        assert snap["histograms"][
            "telemetry.query_seconds{mode=compiled}"]["count"] == 1
        assert hub.queries == 2

    def test_snapshot_reports_uptime_and_qps(self):
        hub = TelemetryHub()
        hub.record_query(make_record())
        snap = hub.snapshot()
        assert snap["queries"] == 1
        assert snap["uptime_seconds"] > 0
        assert snap["qps"] > 0

    def test_slow_query_promotion_flags_identity_once(self):
        hub = TelemetryHub(slow_query_seconds=0.05)
        fast = make_record(0, elapsed_seconds=0.01)
        hub.record_query(fast)
        assert not hub.should_trace(fast["text_sha"])
        slow = make_record(1, elapsed_seconds=0.2)
        hub.record_query(slow)
        assert hub.should_trace(slow["text_sha"])
        counters = hub.registry.snapshot()["counters"]
        assert counters["telemetry.slow_queries"] == 1

    def test_archive_trace_unflags_and_never_repromotes(self):
        from repro.obs.trace import Tracer
        hub = TelemetryHub(slow_query_seconds=0.05)
        slow = make_record(0, elapsed_seconds=0.2)
        hub.record_query(slow)
        tracer = Tracer()
        with tracer.span("query"):
            pass
        assert hub.archive_trace(tracer, slow) is None  # memory-only
        assert not hub.should_trace(slow["text_sha"])
        hub.record_query(make_record(1, elapsed_seconds=0.2,
                                     text_sha=slow["text_sha"]))
        assert not hub.should_trace(slow["text_sha"])  # archived once

    def test_fail_query_records_error_and_dumps(self, tmp_path):
        hub = TelemetryHub(directory=str(tmp_path))
        record = make_record(status="inflight")
        hub.begin_query(record)
        hub.fail_query(record, ValueError("boom"))
        assert (tmp_path / "postmortem.json").exists()
        counters = hub.registry.snapshot()["counters"]
        assert counters[
            "telemetry.queries{mode=compiled,status=error}"] == 1
        logged = read_query_log(str(tmp_path / "queries.jsonl"))
        assert logged[-1]["status"] == "error"
        assert "boom" in logged[-1]["error"]

    def test_absorb_state_labels_per_query_registries(self):
        hub = TelemetryHub()
        per_query = MetricsRegistry()
        per_query.inc("intersections", 4)
        hub.absorb_state(per_query.to_state(), labels={"db": "g1"})
        counters = hub.registry.snapshot()["counters"]
        assert counters["intersections{db=g1}"] == 4

    def test_close_is_idempotent_and_writes_exposition(self, tmp_path):
        hub = TelemetryHub(directory=str(tmp_path))
        hub.record_query(make_record())
        hub.close()
        hub.close()
        assert (tmp_path / "metrics.prom").exists()
        assert (tmp_path / "postmortem.json").exists()


class TestRenderTop:
    def test_windows_and_sections(self):
        records = [make_record(index, morsels=8, steals=2, workers=4,
                               fused_blocks=3) for index in range(10)]
        frame = render_top(records, now=1010.0, window=60.0)
        assert "qps" in frame and "p95" in frame
        assert "plan cache" in frame and "hit rate 100%" in frame
        assert "lanes: fused blocks 30" in frame
        assert "steals" not in frame and "workers" not in frame
        assert "slowest" in frame

    def test_empty_log(self):
        assert "empty" in render_top([])

    def test_stale_records_fall_back_to_all_time(self):
        records = [make_record(0)]
        frame = render_top(records, now=99999.0, window=60.0)
        assert "all time" in frame


class TestDatabaseIntegration:
    @pytest.fixture
    def db(self, tmp_path):
        database = Database(execution_mode="compiled")
        database.load_graph(
            "Edge", random_undirected_edges(30, 90, seed=3), prune=True)
        database.enable_telemetry(directory=str(tmp_path))
        return database

    def test_every_query_appends_a_valid_record(self, db, tmp_path):
        db.query(TRIANGLES)
        db.query(TRIANGLES)
        db.disable_telemetry()
        count, problems = validate_query_log(
            str(tmp_path / "queries.jsonl"))
        assert problems == []
        assert count == 2
        records = read_query_log(str(tmp_path / "queries.jsonl"))
        first, second = records
        assert first["plan_cache"] == "miss"
        assert second["plan_cache"] == "hit"
        assert second["cache_key"] == first["cache_key"]
        assert second["rows"] == 1
        assert second["status"] == "ok"

    def test_recursive_program_reports_its_rounds(self, db, tmp_path):
        """The recursion driver's rule executions land in the program's
        stats — and from there in the record, the report and the
        metrics — instead of vanishing with per-round stats objects."""
        db.enable_metrics()
        db.query("V(x;a:float) :- Edge(x,z); a=1.")
        db.query("V(x;a:float)*[i=4] :- Edge(x,z),V(z); a=<<SUM(z)>>.")
        stats = db.last_stats
        assert stats.recursion_rounds == 4
        assert stats.compiled_bag_calls == 4 == stats.fused_blocks
        # the first round's head trie; later rounds' are not cached
        assert stats.trie_cache_misses >= 1
        assert [r.changed for r in stats.rounds] == [None] * 4
        assert "recursion: 4 round(s)" in stats.describe()
        assert db.metrics.counter("pipeline.recursion_rounds").value == 4
        report = db.explain_analyze(
            "V(x;a:float)*[i=2] :- Edge(x,z),V(z); a=<<SUM(z)>>.")
        assert "recursion: 2 round(s)" in report
        assert "2 generated bag call(s) (2 fused" in report
        db.disable_telemetry()
        count, problems = validate_query_log(
            str(tmp_path / "queries.jsonl"))
        assert problems == [] and count == 3
        base, recursive, explained = read_query_log(
            str(tmp_path / "queries.jsonl"))
        assert "recursion_rounds" not in base
        assert recursive["recursion_rounds"] == recursive["fused_blocks"] \
            == 4
        assert explained["recursion_rounds"] == 2

    def test_off_by_default_and_disable_detaches(self, tmp_path):
        db = Database()
        assert db.config.telemetry is None
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
        db.enable_telemetry(directory=str(tmp_path))
        db.query(TRIANGLES)
        db.disable_telemetry()
        db.query(TRIANGLES)
        records = read_query_log(str(tmp_path / "queries.jsonl"))
        assert len(records) == 1

    def test_promotion_archives_a_chrome_trace(self, db, tmp_path):
        db.telemetry.slow_query_seconds = 0.0  # everything is slow
        db.query(TRIANGLES)                    # flags the identity
        db.query(TRIANGLES)                    # runs traced + archives
        records = read_query_log(str(tmp_path / "queries.jsonl"))
        promoted = [r for r in records if r.get("promoted")]
        assert len(promoted) == 1
        assert promoted[0]["phases"]
        trace_path = promoted[0]["trace_path"]
        assert os.path.exists(trace_path)
        from repro.obs.export import validate_chrome_trace
        with open(trace_path) as handle:
            assert validate_chrome_trace(json.load(handle)) == []
        # tracing was private to the promoted run
        assert db.config.tracer is None

    def test_failed_query_is_logged_and_dumped(self, db, tmp_path):
        with pytest.raises(Exception):
            db.query("Bad(x) :- Missing(x,y).")
        records = read_query_log(str(tmp_path / "queries.jsonl"))
        assert records[-1]["status"] == "error"
        assert (tmp_path / "postmortem.json").exists()

    def test_hub_shares_the_metrics_registry(self, db):
        # Telemetry alone keeps config.metrics None (hot paths free)
        # but still writes telemetry.* series into db.metrics; with
        # metrics also on, one registry carries both families.
        db.query(TRIANGLES)
        counters = db.metrics.snapshot()["counters"]
        assert any(key.startswith("telemetry.queries")
                   for key in counters)
        assert "plan_cache.lookups{tier=miss}" not in counters
        db.enable_metrics()
        db.query(TRIANGLES)
        counters = db.metrics.snapshot()["counters"]
        assert counters["plan_cache.lookups{tier=hit}"] == 1
        assert db.telemetry.registry is db.metrics

    def test_env_var_enables_memory_hub(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        db = Database()
        assert db.telemetry is not None
        assert db.telemetry.directory is None
        assert db.config.telemetry is db.telemetry
