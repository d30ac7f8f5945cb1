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
