"""Metrics registry: instruments, snapshot/reset, query absorption."""

import pytest

from repro import Database
from repro.engine.stats import ExecStats
from repro.obs.metrics import (Histogram, MetricsRegistry, SIZE_BUCKETS,
                               TIME_BUCKETS)

from tests.conftest import random_undirected_edges

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")


class TestInstruments:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 7)
        registry.observe("h", 3)
        registry.observe("h", 100)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == 3
        assert snap["histograms"]["h"]["max"] == 100
        assert snap["histograms"]["h"]["mean"] == pytest.approx(51.5)

    def test_histogram_buckets_cover_range(self):
        histogram = Histogram("h", buckets=(1, 4, 16))
        for value in (0, 1, 2, 5, 1000):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["buckets"]["<=1"] == 2
        assert snap["buckets"]["<=4"] == 1
        assert snap["buckets"]["<=16"] == 1
        assert snap["buckets"]["inf"] == 1

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.set_gauge("g", 1)
        registry.observe("h", 1)
        registry.record_exec_stats(ExecStats())
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_describe_lists_instruments(self):
        registry = MetricsRegistry()
        registry.inc("queries", 2)
        text = registry.describe()
        assert text.startswith("metrics:")
        assert "queries" in text

    def test_time_and_size_buckets_are_increasing(self):
        assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)
        assert list(TIME_BUCKETS) == sorted(TIME_BUCKETS)

    def test_snapshot_emits_full_bucket_list(self):
        # Empty buckets must appear: the bucket schema may not change
        # shape between snapshots of the same histogram (diffing and
        # OpenMetrics exposition rely on it).
        histogram = Histogram("h", buckets=(1, 4, 16))
        before = histogram.snapshot()["buckets"]
        assert list(before) == ["<=1", "<=4", "<=16", "inf"]
        assert all(count == 0 for count in before.values())
        histogram.observe(2)
        after = histogram.snapshot()["buckets"]
        assert list(after) == list(before)
        assert after["<=4"] == 1 and after["<=1"] == 0

    def test_quantile_interpolates_and_clamps(self):
        histogram = Histogram("h", buckets=(10, 20, 40))
        assert histogram.quantile(0.5) is None
        for value in (5, 15, 15, 35):
            histogram.observe(value)
        p50 = histogram.quantile(0.5)
        assert 10 <= p50 <= 20
        assert histogram.quantile(0.99) <= 35  # clamped to observed max
        assert histogram.quantile(0.01) >= 5

    def test_histogram_merge_matching_buckets(self):
        a = Histogram("h", buckets=(1, 4, 16))
        b = Histogram("h", buckets=(1, 4, 16))
        for value in (0, 3):
            a.observe(value)
        for value in (5, 100):
            b.observe(value)
        a.merge(b.counts, b.total, b.count, b.minimum, b.maximum,
                buckets=b.buckets)
        assert a.count == 4
        assert a.maximum == 100
        assert a.snapshot()["buckets"]["inf"] == 1

    def test_histogram_merge_rebuckets_foreign_bounds(self):
        a = Histogram("h", buckets=(1, 4, 16))
        b = Histogram("h", buckets=(2, 8))
        b.observe(2)   # <=2 -> rebuckets at bound 2 -> <=4
        b.observe(7)   # <=8 -> rebuckets at bound 8 -> <=16
        a.merge(b.counts, b.total, b.count, b.minimum, b.maximum,
                buckets=b.buckets)
        snap = a.snapshot()["buckets"]
        assert snap["<=4"] == 1 and snap["<=16"] == 1
        assert a.count == 2


class TestLabels:
    def test_labeled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.inc("queries", labels={"mode": "compiled"})
        registry.inc("queries", 2, labels={"mode": "interpreted"})
        registry.inc("queries")  # unlabeled sibling keeps its own series
        snap = registry.snapshot()["counters"]
        assert snap["queries{mode=compiled}"] == 1
        assert snap["queries{mode=interpreted}"] == 2
        assert snap["queries"] == 1

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.inc("x", labels={"b": "2", "a": "1"})
        registry.inc("x", labels={"a": "1", "b": "2"})
        assert registry.snapshot()["counters"]["x{a=1,b=2}"] == 2

    def test_instruments_keep_structured_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels={"tier": "hit"})
        assert counter.name == "c"
        assert counter.labels == (("tier", "hit"),)
        histogram = registry.histogram("h", labels={"mode": "fused"})
        assert histogram.labels == (("mode", "fused"),)


class TestStateTransport:
    def test_to_state_merge_state_roundtrip(self):
        source = MetricsRegistry()
        source.inc("c", 3)
        source.set_gauge("g", 9)
        source.observe("h", 5, buckets=(1, 4, 16))
        target = MetricsRegistry()
        target.inc("c", 1)
        target.merge_state(source.to_state())
        snap = target.snapshot()
        assert snap["counters"]["c"] == 4
        assert snap["gauges"]["g"] == 9
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_state_adds_labels(self):
        source = MetricsRegistry()
        source.inc("intersections", 7)
        source.observe("h", 2, buckets=(1, 4))
        target = MetricsRegistry()
        target.merge_state(source.to_state(),
                           labels={"lane": "worker-1"})
        snap = target.snapshot()
        assert snap["counters"]["intersections{lane=worker-1}"] == 7
        assert snap["histograms"]["h{lane=worker-1}"]["count"] == 1

    def test_merge_state_incoming_labels_win(self):
        source = MetricsRegistry()
        source.inc("c", labels={"lane": "own"})
        target = MetricsRegistry()
        target.merge_state(source.to_state(), labels={"lane": "added"})
        assert target.snapshot()["counters"]["c{lane=own}"] == 1

    def test_merge_state_respects_enabled(self):
        source = MetricsRegistry()
        source.inc("c")
        target = MetricsRegistry(enabled=False)
        target.merge_state(source.to_state())
        assert target.snapshot()["counters"] == {}

    def test_state_is_json_safe(self):
        import json
        registry = MetricsRegistry()
        registry.inc("c", labels={"mode": "x"})
        registry.observe("h", 3)
        assert json.loads(json.dumps(registry.to_state()))


class TestExecStatsAbsorption:
    def test_none_stats_is_a_noop(self):
        registry = MetricsRegistry()
        registry.record_exec_stats(None)
        assert registry.snapshot()["counters"] == {}


class TestQueryAbsorption:
    @pytest.fixture
    def db(self):
        # Interpreted mode explicitly — these tests assert behavior
        # (intersection-size histograms, serial last_stats) that the
        # compiled pipeline's specialized kernels rightly change, so
        # they must not float with REPRO_EXECUTION_MODE.
        database = Database(execution_mode="interpreted")
        database.load_graph(
            "Edge", random_undirected_edges(30, 90, seed=3), prune=True)
        return database

    def test_query_populates_registry(self, db):
        registry = db.enable_metrics()
        db.query(TRIANGLES)
        snap = registry.snapshot()
        assert snap["counters"]["queries"] == 1
        assert snap["counters"]["ops.simd"] > 0
        assert any(name.startswith("intersect.calls.")
                   for name in snap["counters"])
        assert snap["histograms"]["intersection.size"]["count"] > 0
        assert snap["histograms"]["query.seconds"]["count"] == 1
        assert "trie_cache.entries" in snap["gauges"]

    def test_compiled_query_counts_pipeline_work(self):
        db = Database(execution_mode="compiled")
        db.load_graph(
            "Edge", random_undirected_edges(30, 90, seed=3), prune=True)
        registry = db.enable_metrics()
        db.query(TRIANGLES)
        db.query(TRIANGLES)
        snap = registry.snapshot()
        assert snap["counters"]["queries"] == 2
        assert snap["counters"]["pipeline.codegen_runs"] >= 1
        assert snap["counters"]["pipeline.compiled_bag_calls"] >= 2
        assert snap["gauges"]["plan_cache.rules"] >= 1

    def test_disable_metrics_stops_recording(self, db):
        registry = db.enable_metrics()
        db.query(TRIANGLES)
        first = registry.snapshot()["counters"]["queries"]
        db.disable_metrics()
        db.query(TRIANGLES)
        assert registry.snapshot()["counters"]["queries"] == first

    def test_serial_interpreted_query_keeps_last_stats_none(self, db):
        db.enable_metrics()
        db.query(TRIANGLES)
        assert db.last_stats is None
