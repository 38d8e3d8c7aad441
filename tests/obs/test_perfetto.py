"""Chrome trace-event / Perfetto exporter."""

import json

import pytest

from repro.obs.perfetto import (
    SCHEDULER_TID,
    SOC_PID,
    TLM_TID_BASE,
    chrome_trace_json,
    trace_to_chrome,
    write_chrome_trace,
)
from repro.trace.recorder import TraceRecorder


def schedule_trace():
    trace = TraceRecorder()
    trace.record(0, "release", job="a#0")
    trace.record(5, "dispatch", job="a#0", cpu=0)
    trace.record(12, "irq", cpu=0, info="timer")
    trace.record(20, "preempt", job="a#0", cpu=0)
    trace.record(20, "dispatch", job="b#0", cpu=0)
    trace.record(30, "finish", job="b#0", cpu=0)
    trace.record(25, "dispatch", job="c#0", cpu=1)
    trace.record(40, "finish", job="c#0", cpu=1)
    return trace


class TestSlices:
    def test_dispatch_preempt_finish_become_complete_slices(self):
        # clock_hz=1e6 makes 1 cycle == 1 us, so ts/dur read directly.
        doc = trace_to_chrome(schedule_trace(), clock_hz=1_000_000)
        slices = [(e["tid"], e["name"], e["ts"], e["dur"])
                  for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices == [
            (0, "a#0", 5.0, 15.0),
            (0, "b#0", 20.0, 10.0),
            (1, "c#0", 25.0, 15.0),
        ]

    def test_open_slice_closed_at_horizon(self):
        trace = TraceRecorder()
        trace.record(10, "dispatch", job="a#0", cpu=0)
        doc = trace_to_chrome(trace, clock_hz=1_000_000, horizon=100)
        [only] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert (only["ts"], only["dur"]) == (10.0, 90.0)

    def test_cycle_to_microsecond_conversion(self):
        trace = TraceRecorder()
        trace.record(0, "dispatch", job="a#0", cpu=0)
        trace.record(50, "finish", job="a#0", cpu=0)
        doc = trace_to_chrome(trace, clock_hz=50_000_000)  # 50 MHz: 50 cyc = 1 us
        [only] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert only["dur"] == 1.0
        assert only["args"] == {"start_cycle": 0, "end_cycle": 50}


class TestInstantsAndTracks:
    def test_cpu_instants_on_cpu_track(self):
        doc = trace_to_chrome(schedule_trace(), clock_hz=1_000_000)
        [irq] = [e for e in doc["traceEvents"]
                 if e["ph"] == "i" and e["name"] == "irq"]
        assert irq["tid"] == 0 and irq["s"] == "t" and irq["ts"] == 12.0

    def test_cpuless_events_on_scheduler_track(self):
        doc = trace_to_chrome(schedule_trace(), clock_hz=1_000_000)
        [release] = [e for e in doc["traceEvents"]
                     if e["ph"] == "i" and e["name"].startswith("release")]
        assert release["tid"] == SCHEDULER_TID and release["s"] == "p"

    def test_track_metadata(self):
        doc = trace_to_chrome(schedule_trace())
        names = {(e["tid"], e["args"]["name"])
                 for e in doc["traceEvents"] if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert names == {(0, "cpu0"), (1, "cpu1"), (SCHEDULER_TID, "scheduler")}
        assert all(e["pid"] == SOC_PID for e in doc["traceEvents"])

    def test_document_envelope(self):
        doc = trace_to_chrome(schedule_trace())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["clock_hz"] > 0

    def test_rejects_nonpositive_clock(self):
        with pytest.raises(ValueError):
            trace_to_chrome(schedule_trace(), clock_hz=0)


class TestSerialisation:
    def test_json_text_parses(self):
        doc = json.loads(chrome_trace_json(schedule_trace()))
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(schedule_trace(), str(path))
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_empty_trace_is_valid(self):
        doc = trace_to_chrome(TraceRecorder())
        assert doc["traceEvents"] == [
            {"ph": "M", "pid": SOC_PID, "tid": 0, "name": "process_name",
             "args": {"name": "soc"}}
        ]


class TestTLMTrack:
    def _trace(self):
        trace = TraceRecorder()
        trace.record(500, "tlm_block", job="a#0", cpu=0,
                     info="start=100 nominal=380 stretch=1.0500")
        trace.record(900, "tlm_block", job="b#0", cpu=1,
                     info="start=600 nominal=290 stretch=1.0000")
        return trace

    def test_blocks_become_slices_on_tlm_tracks(self):
        doc = trace_to_chrome(self._trace(), clock_hz=1_000_000)
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["cat"] == "tlm"]
        assert [(s["name"], s["tid"], s["ts"], s["dur"]) for s in slices] == [
            (("a#0"), TLM_TID_BASE + 0, 100.0, 400.0),
            (("b#0"), TLM_TID_BASE + 1, 600.0, 300.0),
        ]
        # Contention adjustment is annotated on every block.
        assert slices[0]["args"]["contention_stretch"] == "1.0500"
        assert slices[0]["args"]["nominal_cycles"] == "380"

    def test_tlm_tracks_named(self):
        doc = trace_to_chrome(self._trace())
        names = {(e["tid"], e["args"]["name"])
                 for e in doc["traceEvents"] if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert (TLM_TID_BASE + 0, "tlm-cpu0") in names
        assert (TLM_TID_BASE + 1, "tlm-cpu1") in names

    def test_malformed_info_degrades_to_instantaneous_slice(self):
        trace = TraceRecorder()
        trace.record(500, "tlm_block", job="a#0", cpu=0, info="garbage")
        doc = trace_to_chrome(trace, clock_hz=1_000_000)
        (block,) = [e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["cat"] == "tlm"]
        assert block["ts"] == 500.0 and block["dur"] == 0.0
