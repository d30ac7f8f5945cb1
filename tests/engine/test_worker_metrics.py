"""Metrics emitted inside forked morsel workers ship back to the parent.

The lane-attribution contract the tracer already has (worker morsel
spans land on ``worker-N`` lanes) extends to metrics: each forked
worker resets its copy-on-write registry at startup, accumulates its
own observations (``intersection.size`` from the generic join's hot
path), and ships the delta back with its ``done`` message; the parent
merges it into the live registry labeled ``lane=worker-N``.  Without
the shipping, worker-side observations would be silently lost to
copy-on-write.
"""

import pytest

from repro import Database
from repro.engine.parallel import _can_fork
from repro.obs.metrics import MetricsRegistry

from tests.conftest import random_undirected_edges

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")

needs_fork = pytest.mark.skipif(not _can_fork(),
                                reason="platform cannot fork")


def forked_database(**overrides):
    # The static strategy forks one worker per chunk regardless of the
    # visible CPU count, so these tests exercise real forked children
    # even on single-CPU CI runners.
    database = Database(parallel_workers=2, parallel_threshold=0,
                        parallel_strategy="static", **overrides)
    database.load_graph("Edge",
                        random_undirected_edges(40, 200, seed=2),
                        prune=True)
    return database


@needs_fork
class TestWorkerShipping:
    def test_worker_observations_merge_with_lane_labels(self):
        # ``intersection.size`` is observed per set intersection, which
        # only the interpreter's morsels perform (a block kernel probes
        # whole blocks), so the shipped series is pinned on the oracle.
        db = forked_database(execution_mode="interpreted")
        registry = db.enable_metrics()
        db.query(TRIANGLES)
        assert db.last_stats.mode == "forked"
        snap = registry.snapshot()
        lane_series = [key for key in snap["histograms"]
                       if key.startswith("intersection.size{lane=")]
        assert lane_series, "worker observations were lost to fork CoW"
        total = sum(snap["histograms"][key]["count"]
                    for key in lane_series)
        assert total > 0
        # every lane label names a real worker
        workers = db.last_stats.workers
        for key in lane_series:
            lane = key.split("lane=")[1].rstrip("}")
            assert lane.startswith("worker-")
            assert int(lane.split("-")[1]) < workers

    def test_parent_morsel_stats_not_double_counted(self):
        db = forked_database()
        registry = db.enable_metrics()
        db.query(TRIANGLES)
        snap = registry.snapshot()
        # Parent-side morsel accounting stays unlabeled (recorded once
        # from the parent's ExecStats); worker lanes never ship their
        # own morsel counters, so no labeled twin exists.
        assert "parallel.morsels" in snap["counters"]
        assert not any(key.startswith("parallel.morsels{")
                       for key in snap["counters"])

    def test_disabled_metrics_ship_nothing(self):
        db = forked_database()
        db.query(TRIANGLES)  # metrics never enabled
        assert db.last_stats.mode == "forked"
        assert db.metrics.snapshot()["counters"] == {}

    def test_worker_reset_keeps_parent_instruments(self):
        # The child's reset() must not leak into the parent: parent
        # counters recorded before the query survive it.
        db = forked_database()
        registry = db.enable_metrics()
        registry.inc("sentinel", 7)
        db.query(TRIANGLES)
        assert registry.snapshot()["counters"]["sentinel"] == 7


class TestMergeSemantics:
    def test_merge_state_is_associative_across_workers(self):
        # Simulate two workers' deltas merging into one parent.
        parent = MetricsRegistry()
        for worker_id in range(2):
            child = MetricsRegistry()
            child.observe("intersection.size", 4 + worker_id)
            parent.merge_state(child.to_state(),
                               labels={"lane": "worker-%d" % worker_id})
        snap = parent.snapshot()["histograms"]
        assert snap["intersection.size{lane=worker-0}"]["count"] == 1
        assert snap["intersection.size{lane=worker-1}"]["count"] == 1
