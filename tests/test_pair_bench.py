"""``tools/pair_bench.py``: the verdict rules of the paired-run
protocol (``choosing-metrics`` §8) on synthetic runs."""

import importlib.util
import os

import pytest


@pytest.fixture(scope="module")
def pair_bench():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "pair_bench", os.path.join(root, "tools", "pair_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``analytics/op_ms`` of PR 19's default-seed campaign (EXPERIMENTS.md).
PARENT = [33.7, 35.0, 33.4, 36.1, 33.3, 37.1, 35.1, 56.3, 55.3, 37.5]
CHANGE = [19.9, 19.9, 21.4, 21.6, 20.1, 19.7, 23.0, 32.6, 35.5, 23.9]


class TestQuartiles:
    def test_match_the_recorded_table(self, pair_bench):
        median, q1, q3 = pair_bench.summary(PARENT)
        assert pair_bench.number(median) == "35.6"
        assert pair_bench.number(q1) == "34.03"
        assert pair_bench.number(q3) == "37.4"
        assert pair_bench.summary([4.0]) == (4.0, 4.0, 4.0)


class TestVerdict:
    def test_a_gain_needs_nine_pairs_and_more_than_the_parents_iqr(
            self, pair_bench):
        assert pair_bench.verdict(PARENT, CHANGE, 0.2) == ("better", 10)
        # eight wins of ten: not a gain, however large the difference
        mixed = CHANGE[:8] + [60.0, 60.0]
        assert pair_bench.verdict(PARENT, mixed, 0.2) \
            == ("within bound", 8)
        # ten wins, but by less than the parent's own spread
        shaved = [value - 0.5 for value in PARENT]
        assert pair_bench.verdict(PARENT, shaved, 0.2) \
            == ("within bound", 10)

    def test_ties_count_for_neither_side(self, pair_bench):
        parent = [10.0] * 10
        change = [5.0] * 8 + [10.0] * 2
        assert pair_bench.verdict(parent, change, 0.2) \
            == ("within bound", 8)
        assert pair_bench.verdict(parent, [5.0] * 9 + [10.0], 0.2) \
            == ("better", 9)

    def test_beyond_the_bound_is_worse_unless_the_spread_is_wider(
            self, pair_bench):
        steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        slower = [value * 1.3 for value in steady]
        assert pair_bench.verdict(steady, slower, 0.2) == ("worse", 0)
        assert pair_bench.verdict(steady, slower, 0.35) \
            == ("within bound", 0)
        noisy = [13.0, 9.0, 16.0, 13.5, 8.0, 17.0, 13.0, 12.5, 18.0, 9.5]
        assert pair_bench.verdict(steady, noisy, 0.2)[0] == "unresolved"

    def test_higher_is_better_metrics_flip(self, pair_bench):
        assert pair_bench.verdict(CHANGE, PARENT, 0.2, better="higher") \
            == ("better", 10)
        assert pair_bench.verdict(PARENT, CHANGE, 0.2,
                                  better="higher")[0] == "worse"


class TestTables:
    def test_rows_in_the_experiments_format(self, pair_bench):
        def reports(values):
            return [{"failed": 0,
                     "metrics": {"op_ms": {"value": value, "unit": "ms"}}}
                    for value in values]
        results = {"analytics": {"parent": reports(PARENT),
                                 "change": reports(CHANGE)}}
        metrics = [{"name": "op_ms", "better": "lower", "bound": 0.2}]
        lines = pair_bench.table(results, metrics).splitlines()
        assert lines[2] == ("| analytics | op_ms | 35.6 (34.03-37.4) | "
                            "21.5 (19.95-23.67) | 0.604 | 10/10 | better |")
        assert lines[3] == "| analytics | failed | 0 | 0 | | | |"
        runs = pair_bench.runs_table(results).splitlines()
        assert runs[2].startswith("| analytics | parent | 33.7 35 33.4 ")

    def test_traced_table_covers_every_layer_metric_but_zero_rows(
            self, pair_bench):
        """``--traced``: one traced pass per side, as ``report.json``
        records it; every ``per_layer`` metric in contract order, a row
        only where a side reads non-zero."""
        per_layer = [{"name": name, "unit": "ms", "better": "lower"}
                     for name in ("lir.optimize_ms", "serve.codec_ms",
                                  "storage.trie_builds", "op.sssp_ms",
                                  "sets.lane_ops")]
        parent = {"failed": 0, "metrics": {
            "lir.optimize_ms": 0.39, "serve.codec_ms": 0.0,
            "storage.trie_builds": 5.333, "op.sssp_ms": 9.61,
            "sets.lane_ops": 145981.0}}
        change = {"failed": 0, "metrics": {
            "lir.optimize_ms": 0.1, "serve.codec_ms": 0.0,
            "storage.trie_builds": 0.0, "op.sssp_ms": 6.4,
            "sets.lane_ops": 145981.33}}
        lines = pair_bench.traced_table(
            {"analytics": {"parent": parent, "change": change}},
            per_layer).splitlines()
        assert lines[2:] == [
            "| analytics | `lir.optimize_ms` | 0.39 | 0.1 | 0.256 |",
            "| analytics | `storage.trie_builds` | 5.333 | 0 | 0.000 |",
            "| analytics | `op.sssp_ms` | 9.61 | 6.4 | 0.666 |",
            "| analytics | `sets.lane_ops` | 145981 | 145981.3 | 1.000 |",
            "| analytics | failed | 0 | 0 | |"]
        # a metric only one side reports is a zero on the other
        del parent["metrics"]["lir.optimize_ms"]
        lines = pair_bench.traced_table(
            {"analytics": {"parent": parent, "change": change}},
            per_layer).splitlines()
        assert lines[2] == "| analytics | `lir.optimize_ms` | 0 | 0.1 |  |"

    def test_run_traced_reads_its_copys_report_never_a_stale_one(
            self, pair_bench, tmp_path):
        script = tmp_path / "benchmarks" / "e2e" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(
            "import json, os\n"
            "os.makedirs('benchmarks/e2e/out', exist_ok=True)\n"
            "json.dump({'passes': [{'workload': 'analytics', "
            "'traced': True, 'failed': 0, "
            "'metrics': {'op.sssp_ms': 6.0}}]},\n"
            "          open('benchmarks/e2e/out/report.json', 'w'))\n")
        traced = pair_bench.run_traced(str(tmp_path), "analytics", None)
        assert traced["metrics"] == {"op.sssp_ms": 6.0}
        script.write_text("raise SystemExit('boom')\n")
        with pytest.raises(SystemExit, match="wrote no report"):
            pair_bench.run_traced(str(tmp_path), "analytics", 7)
