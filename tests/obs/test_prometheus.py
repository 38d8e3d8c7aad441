"""Prometheus exposition conformance: escaping and scrape round-trips."""

import pytest

from repro.obs.metrics import MetricsRegistry, parse_prometheus_text


def scrape(registry):
    return parse_prometheus_text(registry.to_prometheus_text())


class TestExportConformance:
    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", labels={"path": 'a"b\\c\nd'}).inc()
        text = registry.to_prometheus_text()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_help_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", help="line1\nline2 \\ backslash").inc()
        text = registry.to_prometheus_text()
        assert "# HELP x_total line1\\nline2 \\\\ backslash" in text

    def test_histogram_has_inf_bucket_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(10, 100))
        for value in (5, 50, 500):
            histogram.observe(value)
        text = registry.to_prometheus_text()
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 555.0" in text
        assert "lat_count 3" in text


class TestParser:
    def test_counter_round_trip_with_escapes(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", labels={"path": 'a"b\\c\nd'},
                         help="with\nnewline").inc(7)
        families = scrape(registry)
        assert families["reqs_total"]["type"] == "counter"
        assert families["reqs_total"]["help"] == "with\nnewline"
        assert families["reqs_total"]["samples"] == [
            ("reqs_total", (("path", 'a"b\\c\nd'),), 7.0)
        ]

    def test_literal_backslash_n_stays_literal(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels={"v": "a\\nb"}).inc()
        families = scrape(registry)
        (_, labels, _) = families["x_total"]["samples"][0]
        assert labels == (("v", "a\\nb"),)

    def test_histogram_samples_fold_into_base_family(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(10, 100),
                                       labels={"cpu": "0"})
        for value in (5, 50, 500):
            histogram.observe(value)
        families = scrape(registry)
        assert set(families) == {"lat"}
        assert families["lat"]["type"] == "histogram"
        buckets = {labels: value
                   for name, labels, value in families["lat"]["samples"]
                   if name == "lat_bucket"}
        assert buckets[(("cpu", "0"), ("le", "10"))] == 1.0
        assert buckets[(("cpu", "0"), ("le", "100"))] == 2.0
        assert buckets[(("cpu", "0"), ("le", "+Inf"))] == 3.0
        flat = {name: value
                for name, labels, value in families["lat"]["samples"]
                if name != "lat_bucket"}
        assert flat == {"lat_sum": 555.0, "lat_count": 3.0}

    def test_gauge_round_trip(self):
        registry = MetricsRegistry()
        registry.gauge("depth", labels={"queue": "local", "cpu": "1"}).set(2.5)
        families = scrape(registry)
        assert families["depth"]["samples"] == [
            ("depth", (("cpu", "1"), ("queue", "local")), 2.5)
        ]

    def test_inf_values_parse(self):
        families = parse_prometheus_text("x +Inf\ny -Inf\n")
        assert families["x"]["samples"][0][2] == float("inf")
        assert families["y"]["samples"][0][2] == float("-inf")

    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all { } \n")
        with pytest.raises(ValueError):
            parse_prometheus_text('x{bad labels} 1\n')
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x wat\n")

    def test_comments_and_blank_lines_skipped(self):
        families = parse_prometheus_text("\n# a comment\nx_total 1\n\n")
        assert families["x_total"]["samples"] == [("x_total", (), 1.0)]

    def test_round_trip_is_lossless_for_every_family_type(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", labels={"kind": "a"}).inc(3)
        registry.gauge("util").set(0.75)
        histogram = registry.histogram("cycles", buckets=(10,))
        histogram.observe(4)
        families = scrape(registry)
        assert {name: fam["type"] for name, fam in families.items()} == {
            "ops_total": "counter", "util": "gauge", "cycles": "histogram",
        }
