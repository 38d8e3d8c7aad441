"""MetricsRegistry: instruments, families, labels and exports."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_CYCLE_BUCKETS,
    DEFAULT_DEPTH_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram(buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 5555
        assert histogram.minimum == 5 and histogram.maximum == 5000
        assert histogram.counts == [1, 1, 1]
        assert histogram.overflow == 1
        assert histogram.cumulative() == [
            ("10", 1), ("100", 2), ("1000", 3), ("+Inf", 4)
        ]

    def test_histogram_boundary_is_inclusive(self):
        histogram = Histogram(buckets=(10,))
        histogram.observe(10)
        assert histogram.counts == [1] and histogram.overflow == 0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(10, 5))
        with pytest.raises(ValueError):
            Histogram(buckets=(10, 10))


class TestFamilies:
    def test_same_name_same_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("irqs_total", labels={"kind": "timer"})
        b = registry.counter("irqs_total", labels={"kind": "timer"})
        assert a is b

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", labels={"a": 1, "b": 2})
        b = registry.counter("x", labels={"b": 2, "a": 1})
        assert a is b

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("irqs_total", labels={"cpu": 0}).inc()
        registry.counter("irqs_total", labels={"cpu": 1}).inc(2)
        rows = registry.snapshot()["irqs_total"]["series"]
        assert [(r["labels"], r["value"]) for r in rows] == [
            ({"cpu": "0"}, 1),
            ({"cpu": "1"}, 2),
        ]

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_bucket_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(10, 100))
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=(1, 2, 3))

    def test_default_bucket_constants_are_increasing(self):
        for bounds in (DEFAULT_CYCLE_BUCKETS, DEFAULT_DEPTH_BUCKETS):
            assert list(bounds) == sorted(bounds)
            assert len(set(bounds)) == len(bounds)


class TestExport:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("irqs_total", labels={"kind": "timer"},
                         help="interrupts delivered").inc(3)
        registry.gauge("depth").set(2)
        histogram = registry.histogram("lat", buckets=(10, 100), help="latency")
        for value in (5, 50, 500):
            histogram.observe(value)
        return registry

    def test_snapshot_shape(self):
        snap = self.build().snapshot()
        assert set(snap) == {"irqs_total", "depth", "lat"}
        lat = snap["lat"]["series"][0]
        assert lat["count"] == 3
        assert lat["buckets"] == {"10": 1, "100": 2, "+Inf": 3}

    def test_to_json_is_deterministic(self):
        assert self.build().to_json() == self.build().to_json()
        json.loads(self.build().to_json(indent=2))  # parses

    def test_prometheus_text(self):
        text = self.build().to_prometheus_text()
        assert "# HELP irqs_total interrupts delivered" in text
        assert "# TYPE irqs_total counter" in text
        assert 'irqs_total{kind="timer"} 3' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 555.0" in text
        assert "lat_count 3" in text
        assert "depth 2" in text  # integral floats render as ints
        assert text.endswith("\n")

    def test_prometheus_text_labeled_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("d", buckets=(1,), labels={"cpu": 0}).observe(0)
        text = registry.to_prometheus_text()
        assert 'd_bucket{cpu="0",le="1"} 1' in text
        assert 'd_count{cpu="0"} 1' in text

    def test_len_and_contains(self):
        registry = self.build()
        assert len(registry) == 3
        assert "lat" in registry and "nope" not in registry
