"""Cross-process telemetry: worker collection, deterministic merge."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.perf.executor import Telemetry, current_telemetry, pmap


def observed(x):
    """Module-level (picklable) body that records into the active telemetry."""
    telemetry = current_telemetry()
    if telemetry is not None:
        with telemetry.spans.span("cell", x=x):
            telemetry.metrics.counter("cells_total").inc()
            telemetry.metrics.histogram("cost", buckets=(10, 100)).observe(x)
            telemetry.metrics.gauge("last_x").set(x)
    return x * x


def plain(x):
    return x + 1


def run(workers, chunksize=None, items=range(8)):
    telemetry = Telemetry()
    stats = {}
    results = pmap(observed, list(items), max_workers=workers,
                   chunksize=chunksize, stats=stats, telemetry=telemetry)
    return results, telemetry, stats


class TestSerialCollection:
    def test_serial_records_into_the_given_telemetry(self):
        results, telemetry, stats = run(workers=1)
        assert results == [x * x for x in range(8)]
        assert stats["mode"] == "serial"
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["cells_total"]["series"][0]["value"] == 8
        assert len(telemetry.spans) == 8
        assert all(s.process == "main" for s in telemetry.spans)

    def test_no_telemetry_means_no_ambient_context(self):
        assert current_telemetry() is None
        assert pmap(observed, [1, 2]) == [1, 4]
        assert current_telemetry() is None

    def test_active_telemetry_restored_after_pmap(self):
        telemetry = Telemetry()
        pmap(observed, [1], max_workers=1, telemetry=telemetry)
        assert current_telemetry() is None


class TestCrossProcessMerge:
    def test_parallel_metrics_equal_serial_bit_for_bit(self):
        _, serial, _ = run(workers=1)
        results, parallel, stats = run(workers=2)
        assert stats["mode"] == "parallel"
        assert results == [x * x for x in range(8)]
        assert parallel.metrics.to_json() == serial.metrics.to_json()

    def test_chunked_equals_unchunked(self):
        _, chunked, _ = run(workers=2, chunksize=1)
        _, coarse, _ = run(workers=2, chunksize=4)
        _, serial, _ = run(workers=1)
        assert chunked.metrics.to_json() == serial.metrics.to_json()
        assert coarse.metrics.to_json() == serial.metrics.to_json()

    def test_worker_counts_independent_of_pool_size(self):
        baselines = [run(workers=n)[1].metrics.to_json() for n in (1, 2, 3)]
        assert len(set(baselines)) == 1

    def test_gauge_takes_serial_program_order(self):
        _, parallel, _ = run(workers=2, chunksize=1)
        snapshot = parallel.metrics.snapshot()
        # Last item in submission order wins, as it would serially.
        assert snapshot["last_x"]["series"][0]["value"] == 7

    def test_spans_grafted_with_worker_labels(self):
        _, serial, _ = run(workers=1)
        _, parallel, stats = run(workers=2, chunksize=1)
        assert stats["mode"] == "parallel"
        assert parallel.spans.structure() == serial.spans.structure()
        labels = {s.process for s in parallel.spans}
        assert labels and all(l.startswith("worker-") for l in labels)

    def test_histogram_exactness_for_integer_observations(self):
        _, serial, _ = run(workers=1, items=range(64))
        _, parallel, _ = run(workers=4, chunksize=3, items=range(64))
        a = serial.metrics.snapshot()["cost"]["series"][0]
        b = parallel.metrics.snapshot()["cost"]["series"][0]
        assert a == b
        assert a["sum"] == sum(range(64))


class TestRegistryMerge:
    def test_merge_type_conflict_raises(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.counter("x").inc()
        theirs.gauge("x").set(1)
        with pytest.raises(ValueError):
            mine.merge(theirs)

    def test_merge_bucket_conflict_raises(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.histogram("h", buckets=(1, 2)).observe(1)
        theirs.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError):
            mine.merge(theirs)

    def test_merge_into_empty_copies_everything(self):
        theirs = MetricsRegistry()
        theirs.counter("c", labels={"k": "v"}).inc(2)
        theirs.histogram("h", buckets=(10,)).observe(3)
        theirs.gauge("g").set(1.5)
        mine = MetricsRegistry().merge(theirs)
        assert mine.to_json() == theirs.to_json()

    def test_split_merge_equals_serial_bit_for_bit(self):
        def fill(registry, values):
            for value in values:
                registry.counter("ops_total").inc()
                registry.histogram("cost", buckets=(10, 100)).observe(value)
                registry.gauge("last").set(value)
            return registry

        serial = fill(MetricsRegistry(), [5, 50, 500, 7])
        merged = fill(MetricsRegistry(), [5, 50])
        merged.merge(fill(MetricsRegistry(), [500, 7]))
        assert merged.to_json() == serial.to_json()

    def test_merge_chains(self):
        a, b, c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for registry in (a, b, c):
            registry.counter("n").inc()
        assert a.merge(b).merge(c) is a
        assert a.snapshot()["n"]["series"][0]["value"] == 3


class TestTelemetryDefaults:
    def test_worker_label_stamps_span_process(self):
        telemetry = Telemetry(worker="worker-42")
        assert telemetry.spans.process == "worker-42"
        assert telemetry.worker == "worker-42"

    def test_explicit_components_kept(self):
        registry = MetricsRegistry()
        telemetry = Telemetry(metrics=registry)
        assert telemetry.metrics is registry
