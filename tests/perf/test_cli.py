"""Tests for the repro-perf CLI and the timing harness."""

import json

import pytest

from repro.perf import bench
from repro.perf.cli import main


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "repro-perf" in capsys.readouterr().err


class TestBenchSections:
    def test_engine_micro(self):
        result = bench.bench_engine(n_processes=20, horizon=200)
        assert result["events"] > 0
        assert result["events_per_s"] > 0

    def test_engine_micro_deterministic_event_count(self):
        a = bench.bench_engine(n_processes=20, horizon=200)
        b = bench.bench_engine(n_processes=20, horizon=200)
        assert a["events"] == b["events"]


class TestEngineOnlyMode:
    def test_engine_only_skips_slow_sections(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("figure4/cache must not run in engine-only")

        monkeypatch.setattr(bench, "bench_figure4", boom)
        monkeypatch.setattr(bench, "bench_cache", boom)
        results = bench.run_benchmarks(out="", quick=True, engine_only=True)
        assert set(results) == {"version", "host", "engine"}
        assert "figure4" not in bench.format_results(results)

    def test_cli_engine_only_writes_nothing_by_default(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--engine-only", "--quick"]) == 0
        assert "engine :" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_perf.json").exists()

    def test_cli_engine_only_explicit_out(self, tmp_path, capsys):
        out = tmp_path / "engine.json"
        assert main(["bench", "--engine-only", "--quick",
                     "--out", str(out)]) == 0
        on_disk = json.loads(out.read_text())
        assert set(on_disk) == {"version", "host", "engine"}


class TestCacheCommand:
    def test_reports_usage(self, tmp_path, capsys):
        from repro.perf.cache import RunCache, cache_key

        RunCache(tmp_path).put(cache_key(x=1), {"y": 2})
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        assert "1 entry(ies)" in capsys.readouterr().out

    def test_gc_evicts_to_limit(self, tmp_path, capsys):
        from repro.perf.cache import RunCache, cache_key

        cache = RunCache(tmp_path)
        for i in range(5):
            cache.put(cache_key(x=i), {"i": i})
        assert main(["cache", "--gc", "--max-entries", "2",
                     "--dir", str(tmp_path)]) == 0
        assert "3 entry(ies) evicted" in capsys.readouterr().out
        assert len(RunCache(tmp_path)) == 2


@pytest.mark.slow
class TestBenchEndToEnd:
    def test_run_benchmarks_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        results = bench.run_benchmarks(
            out=str(out), workers=2, quick=True
        )
        assert results["figure4"]["identical"]
        assert results["cache"]["identical"]
        assert results["cache"]["hit_rate"] == 0.5  # warm run all hits
        on_disk = json.loads(out.read_text())
        assert on_disk["engine"]["events"] == results["engine"]["events"]
        assert set(on_disk) == {"version", "host", "engine", "figure4",
                                "cache", "tlm", "isa"}
        assert on_disk["isa"]["identical"]
        assert "speedup" in on_disk["figure4"]
        assert on_disk["tlm"]["accurate"]
        text = bench.format_results(results)
        assert "figure4" in text and "cache" in text and "tlm" in text
