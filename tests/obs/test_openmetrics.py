"""OpenMetrics exposition: rendering, strict validation, scraping."""

import math
import urllib.request

from repro.obs.metrics import MetricsRegistry, TIME_BUCKETS
from repro.obs.openmetrics import (metric_name, render_openmetrics,
                                   serve_metrics, validate_openmetrics,
                                   write_openmetrics)
from repro.obs.openmetrics import main as openmetrics_main


def populated_registry():
    registry = MetricsRegistry()
    registry.inc("cache.plan.hits", 3)
    registry.inc("telemetry.queries", 2,
                 labels={"mode": "compiled", "status": "ok"})
    registry.inc("telemetry.queries",
                 labels={"mode": "interpreted", "status": "ok"})
    registry.set_gauge("trie_cache.entries", 4)
    for value in (0.001, 0.01, 0.01, 0.5):
        registry.observe("telemetry.query_seconds", value, TIME_BUCKETS,
                         labels={"mode": "compiled"})
    return registry


class TestRender:
    def test_exposition_is_strictly_valid(self):
        text = render_openmetrics(populated_registry())
        assert validate_openmetrics(text) == []

    def test_counter_samples_use_total_suffix(self):
        text = render_openmetrics(populated_registry())
        assert "repro_cache_plan_hits_total 3" in text
        assert '_total{mode="compiled",status="ok"} 2' in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1, 4, 16))
        for value in (0, 3, 100):
            histogram.observe(value)
        text = render_openmetrics(registry)
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_h_bucket")]
        values = [float(line.split()[-1]) for line in lines]
        assert values == sorted(values)           # cumulative
        assert 'le="+Inf"' in lines[-1]
        assert values[-1] == 3
        assert "repro_h_sum 103" in text
        assert "repro_h_count 3" in text

    def test_quantile_family_per_histogram(self):
        text = render_openmetrics(populated_registry())
        assert "# TYPE repro_telemetry_query_seconds_quantile gauge" \
            in text
        assert 'quantile="0.5"' in text
        assert 'quantile="0.99"' in text

    def test_metadata_and_eof(self):
        text = render_openmetrics(populated_registry())
        assert "# TYPE repro_cache_plan_hits counter" in text
        assert "# HELP repro_cache_plan_hits" in text
        assert text.endswith("# EOF\n")

    def test_name_sanitization(self):
        assert metric_name("cache.plan.hits") == "repro_cache_plan_hits"
        assert metric_name("a-b c") == "repro_a_b_c"

    def test_empty_registry_renders_valid(self):
        text = render_openmetrics(MetricsRegistry())
        assert validate_openmetrics(text) == []

    def test_inf_and_empty_histogram_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1,))  # never observed
        text = render_openmetrics(registry)
        assert validate_openmetrics(text) == []
        assert math.inf not in [None]  # exposition stays parseable


class TestValidator:
    def test_rejects_missing_eof(self):
        assert any("EOF" in p for p in
                   validate_openmetrics("# TYPE a counter\na_total 1\n"))

    def test_rejects_sample_without_type(self):
        text = "orphan 1\n# EOF\n"
        assert any("no # TYPE" in p for p in validate_openmetrics(text))

    def test_rejects_counter_without_total(self):
        text = "# TYPE a counter\na 1\n# EOF\n"
        assert any("_total" in p for p in validate_openmetrics(text))

    def test_rejects_interleaved_families(self):
        text = ("# TYPE a counter\na_total 1\n"
                "# TYPE b counter\nb_total 1\n"
                "a_total{x=\"1\"} 2\n# EOF\n")
        assert any("interleaved" in p for p in
                   validate_openmetrics(text))

    def test_rejects_duplicate_series(self):
        text = "# TYPE a counter\na_total 1\na_total 2\n# EOF\n"
        assert any("duplicate series" in p for p in
                   validate_openmetrics(text))

    def test_rejects_noncumulative_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
                "h_sum 9\nh_count 3\n# EOF\n")
        assert any("not cumulative" in p for p in
                   validate_openmetrics(text))

    def test_rejects_missing_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n# EOF\n')
        assert any("+Inf" in p for p in validate_openmetrics(text))

    def test_rejects_count_bucket_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 3\nh_sum 9\nh_count 4\n# EOF\n')
        assert any("_count" in p for p in validate_openmetrics(text))

    def test_rejects_bad_values_and_labels(self):
        assert validate_openmetrics(
            "# TYPE g gauge\ng wat\n# EOF\n")
        assert validate_openmetrics(
            "# TYPE g gauge\ng{bad-label=\"1\"} 1\n# EOF\n")


class TestFileAndServer:
    def test_write_and_cli_validate(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.prom")
        write_openmetrics(populated_registry(), path)
        assert openmetrics_main([path]) == 0
        assert "valid OpenMetrics" in capsys.readouterr().out
        with open(path, "w") as handle:
            handle.write("junk &&&\n")
        assert openmetrics_main([path]) == 1

    def test_scrape_endpoint_serves_live_registry(self):
        registry = populated_registry()
        server = serve_metrics(registry, port=0)
        try:
            port = server.server_address[1]
            url = "http://127.0.0.1:%d/metrics" % port
            with urllib.request.urlopen(url) as response:
                assert response.status == 200
                assert "openmetrics-text" in \
                    response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert validate_openmetrics(body) == []
            registry.inc("cache.plan.hits")  # live: next scrape sees it
            with urllib.request.urlopen(url) as response:
                fresh = response.read().decode("utf-8")
            assert "repro_cache_plan_hits_total 4" in fresh
            code = urllib.request.urlopen(url.replace(
                "/metrics", "/nope"))
        except urllib.error.HTTPError as error:
            assert error.code == 404
        finally:
            server.shutdown()
            server.server_close()

    def test_database_write_and_serve(self, tmp_path):
        from repro import Database
        db = Database()
        db.enable_metrics()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
        db.query("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                 "w=<<COUNT(*)>>.")
        path = db.write_metrics(str(tmp_path / "db.prom"))
        with open(path) as handle:
            assert validate_openmetrics(handle.read()) == []
