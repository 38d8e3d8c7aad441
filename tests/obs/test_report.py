"""RunReport assembly, fold helpers, and the instrumented prototype run."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    RunReport,
    fold_bus_monitor,
    fold_icaches,
    fold_run_cache,
)
from repro.trace.recorder import TraceRecorder


class FakeMonitor:
    """Duck-typed stand-in for BusMonitor (samples + summary views)."""

    class Sample:
        def __init__(self, utilization):
            self.utilization = utilization

    def __init__(self, series):
        self.samples = [self.Sample(u) for u in series]

    def peak_utilization(self):
        return max((s.utilization for s in self.samples), default=0.0)

    def steady_state_utilization(self, skip=1):
        tail = self.samples[skip:]
        return sum(s.utilization for s in tail) / len(tail) if tail else 0.0


class FakeICache:
    def __init__(self, cpu_id, hits, misses):
        self.cpu_id = cpu_id
        self.hits = hits
        self.misses = misses

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FakeRunCache:
    def stats(self):
        return {"hits": 3, "misses": 1, "hit_rate": 0.75}


class TestFoldHelpers:
    def test_fold_bus_monitor(self):
        registry = MetricsRegistry()
        fold_bus_monitor(registry, FakeMonitor([0.2, 0.6, 0.8]))
        snap = registry.snapshot()
        assert snap["bus_window_utilization"]["series"][0]["count"] == 3
        assert snap["bus_peak_utilization"]["series"][0]["value"] == 0.8
        assert snap["bus_steady_state_utilization"]["series"][0]["value"] == pytest.approx(0.7)

    def test_fold_icaches_per_cpu(self):
        registry = MetricsRegistry()
        fold_icaches(registry, [FakeICache(0, 90, 10), FakeICache(1, 40, 60)])
        snap = registry.snapshot()
        rates = {row["labels"]["cpu"]: row["value"]
                 for row in snap["icache_hit_rate"]["series"]}
        assert rates == {"0": 0.9, "1": 0.4}
        hits = {row["labels"]["cpu"]: row["value"]
                for row in snap["icache_hits_total"]["series"]}
        assert hits == {"0": 90, "1": 40}

    def test_fold_run_cache(self):
        registry = MetricsRegistry()
        fold_run_cache(registry, FakeRunCache())
        snap = registry.snapshot()
        assert snap["run_cache_hits_total"]["series"][0]["value"] == 3
        assert snap["run_cache_misses_total"]["series"][0]["value"] == 1
        assert snap["run_cache_hit_rate"]["series"][0]["value"] == 0.75


class TestRunReport:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("context_switches_total").inc(7)
        trace = TraceRecorder()
        trace.record(0, "release", job="a#0")
        trace.record(5, "dispatch", job="a#0", cpu=0)
        trace.record(9, "finish", job="a#0", cpu=0)
        return RunReport.build(
            label="unit", registry=registry,
            params={"n_cpus": 2}, kernel_stats={"ticks": 4}, trace=trace,
        )

    def test_sections(self):
        report = self.build()
        assert report.label == "unit"
        assert report.params == {"n_cpus": 2}
        assert report.kernel == {"ticks": 4}
        assert report.metric("context_switches_total")["series"][0]["value"] == 7
        assert report.trace == {
            "emitted": 3,
            "retained": 3,
            "by_kind": {"dispatch": 1, "finish": 1, "release": 1},
        }

    def test_json_round_trip_and_write(self, tmp_path):
        report = self.build()
        parsed = json.loads(report.to_json())
        assert parsed["label"] == "unit"
        path = tmp_path / "report.json"
        report.write(str(path))
        assert json.loads(path.read_text()) == report.to_dict()

    def test_summary_renders(self):
        text = self.build().summary()
        assert "run report: unit" in text
        assert "context_switches_total: 7" in text
        assert "3 events emitted" in text

    def test_metric_missing_raises(self):
        with pytest.raises(KeyError):
            self.build().metric("nope")


@pytest.mark.slow
class TestInstrumentedPrototypeRun:
    """Acceptance: a Figure-4-style run with observability enabled."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.experiments.runner import prototype_run_report

        return prototype_run_report(n_cpus=2, utilization=0.5, scale=1_000,
                                    horizon_margin_s=12.0)

    def test_headline_metric_families_present(self, report):
        for name in (
            "sched_cycle_cycles",       # scheduler-cycle latency histogram
            "queue_depth",              # per-cpu queue depths
            "ipi_delivery_cycles",      # IPI delivery latency
            "mpic_delivery_cycles",
            "mpic_delivered_total",     # per-peripheral distribution
            "sync_lock_wait_cycles",    # lock wait times
            "sync_lock_hold_cycles",
            "bus_window_utilization",   # bus contention
            "bus_peak_utilization",
            "icache_hit_rate",          # cache hit rates
            "context_switches_total",
            "kernel_irqs_total",
            "aperiodic_response_s",
            "deadline_misses",
        ):
            assert name in report.metrics, name

    def test_scheduler_cycles_observed(self, report):
        series = report.metric("sched_cycle_cycles")["series"][0]
        assert series["count"] > 0
        assert series["min"] >= 0

    def test_queue_depths_cover_every_cpu(self, report):
        rows = report.metric("queue_depth")["series"]
        local_cpus = {row["labels"]["cpu"] for row in rows
                      if row["labels"]["queue"] == "local"}
        assert local_cpus == {"0", "1"}
        queues = {row["labels"]["queue"] for row in rows}
        assert {"periodic_ready", "aperiodic_ready", "local"} <= queues

    def test_ipi_and_lock_metrics_observed(self, report):
        assert report.metric("ipi_delivery_cycles")["series"][0]["count"] > 0
        assert report.metric("sync_lock_wait_cycles")["series"][0]["count"] > 0

    def test_bus_utilization_sampled(self, report):
        assert report.metric("bus_window_utilization")["series"][0]["count"] > 0
        peak = report.metric("bus_peak_utilization")["series"][0]["value"]
        assert 0.0 <= peak <= 1.0

    def test_trace_summary_bounded_by_ring(self, report):
        assert report.trace["emitted"] >= report.trace["retained"]
        assert report.trace["retained"] <= 65_536

    def test_kernel_stats_and_params_recorded(self, report):
        assert report.params["n_cpus"] == 2
        assert "context_switches" in report.kernel


class TestDeadlineMisses:
    """Satellite: deadline misses are a first-class report field."""

    def test_field_mirrors_kernel_stats(self):
        registry = MetricsRegistry()
        report = RunReport.build(
            label="faulty", registry=registry,
            kernel_stats={"ticks": 4, "deadline_misses": 3},
        )
        assert report.deadline_misses == 3
        payload = json.loads(report.to_json())
        assert payload["deadline_misses"] == 3

    def test_defaults_to_zero(self):
        report = RunReport.build(label="clean", registry=MetricsRegistry())
        assert report.deadline_misses == 0
        assert report.to_dict()["deadline_misses"] == 0

    def test_instrumented_fault_run_reports_misses(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.scenarios import crash_plan, demo_taskset
        from repro.hw.soc import SoC, SoCConfig
        from repro.kernel import DualPriorityMicrokernel

        registry = MetricsRegistry()
        soc = SoC(SoCConfig(n_cpus=2, tick_cycles=20_000, chunk_cycles=1_000))
        kernel = DualPriorityMicrokernel(soc, demo_taskset(), metrics=registry)
        FaultInjector(kernel, crash_plan()).arm()
        kernel.run(until=400_000)

        report = RunReport.build(label="crash-storm", registry=registry,
                                 kernel_stats=kernel.stats())
        assert report.deadline_misses == kernel.deadline_misses > 0
        assert "deadline_misses_total" in report.metrics


class TestSinkLossAccounting:
    """Satellite: ring-buffer drops and streamed bytes surface in reports."""

    def test_ring_buffer_drops_reported(self):
        from repro.obs.sinks import RingBufferSink

        trace = TraceRecorder(sink=RingBufferSink(capacity=4))
        for time in range(10):
            trace.record(time, "tick", cpu=0)
        report = RunReport.build(label="ring", registry=MetricsRegistry(),
                                 trace=trace)
        assert report.trace["emitted"] == 10
        assert report.trace["retained"] == 4
        assert report.trace["dropped"] == 6
        assert "6 dropped" in report.summary()

    def test_jsonl_sink_bytes_reported(self, tmp_path):
        from repro.obs.sinks import JsonlFileSink

        path = tmp_path / "trace.jsonl"
        trace = TraceRecorder(sink=JsonlFileSink(path))
        trace.record(0, "release", job="a#0")
        trace.record(5, "dispatch", job="a#0", cpu=1)
        trace.close()
        report = RunReport.build(label="stream", registry=MetricsRegistry(),
                                 trace=trace)
        assert report.trace["bytes_written"] == path.stat().st_size > 0
        assert f"{report.trace['bytes_written']} byte(s) streamed" in report.summary()

    def test_list_sink_has_no_loss_fields(self):
        trace = TraceRecorder()
        trace.record(0, "tick", cpu=0)
        report = RunReport.build(label="list", registry=MetricsRegistry(),
                                 trace=trace)
        assert "dropped" not in report.trace
        assert "bytes_written" not in report.trace
