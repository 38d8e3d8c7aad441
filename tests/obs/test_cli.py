"""repro-obs CLI: convert, report, history and diff plumbing."""

import json

import pytest

from repro.obs.cli import main
from repro.trace.export import trace_to_csv, trace_to_json
from repro.trace.recorder import TraceRecorder


def sample_trace():
    trace = TraceRecorder()
    trace.record(0, "release", job="a#0")
    trace.record(5, "dispatch", job="a#0", cpu=0)
    trace.record(20, "finish", job="a#0", cpu=0)
    trace.record(12, "irq", cpu=0, info="timer")
    return trace


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConvert:
    def test_json_to_perfetto(self, tmp_path, capsys):
        src = write(tmp_path, "trace.json", trace_to_json(sample_trace()))
        assert main(["convert", src]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["ph"] == "X" and e["name"] == "a#0"
                   for e in doc["traceEvents"])

    def test_csv_to_perfetto_file(self, tmp_path):
        src = write(tmp_path, "trace.csv", trace_to_csv(sample_trace()))
        dst = tmp_path / "out.json"
        assert main(["convert", src, "--out", str(dst)]) == 0
        doc = json.loads(dst.read_text())
        assert doc["traceEvents"]

    def test_json_to_jsonl_and_back(self, tmp_path, capsys):
        src = write(tmp_path, "trace.json", trace_to_json(sample_trace()))
        jsonl = tmp_path / "trace.jsonl"
        assert main(["convert", src, "--to", "jsonl", "--out", str(jsonl)]) == 0
        assert main(["convert", str(jsonl), "--to", "csv"]) == 0
        assert capsys.readouterr().out == trace_to_csv(sample_trace())

    def test_jsonl_to_json(self, tmp_path, capsys):
        src = write(tmp_path, "trace.json", trace_to_json(sample_trace()))
        jsonl = tmp_path / "t.jsonl"
        main(["convert", src, "--to", "jsonl", "--out", str(jsonl)])
        assert main(["convert", str(jsonl), "--to", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["kind"] for r in rows] == ["release", "dispatch", "finish", "irq"]

    def test_clock_hz_scales_timestamps(self, tmp_path, capsys):
        src = write(tmp_path, "trace.json", trace_to_json(sample_trace()))
        assert main(["convert", src, "--clock-hz", "1000000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        [slice_] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert (slice_["ts"], slice_["dur"]) == (5.0, 15.0)

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "missing.json")]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_malformed_csv_is_clean_error(self, tmp_path, capsys):
        src = write(tmp_path, "bad.csv", "not,a,trace\n1,2,3\n")
        assert main(["convert", src]) == 1
        assert "cannot load" in capsys.readouterr().err


class TestReport:
    @pytest.mark.slow
    def test_report_writes_artefacts(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        jsonl = tmp_path / "trace.jsonl"
        perfetto = tmp_path / "perfetto.json"
        assert main([
            "report", "--cpus", "2", "--util", "0.4", "--scale", "1000",
            "--horizon-margin", "12.0",
            "--out", str(out),
            "--trace-jsonl", str(jsonl),
            "--perfetto", str(perfetto),
        ]) == 0
        report = json.loads(out.read_text())
        assert "sched_cycle_cycles" in report["metrics"]
        assert jsonl.read_text().strip()
        doc = json.loads(perfetto.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_perfetto_without_jsonl_is_an_error(self, capsys):
        assert main(["report", "--perfetto", "x.json", "--scale", "1000"]) == 1
        assert "--trace-jsonl" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
