"""Tests for the repro-perf CLI."""

import pytest

from repro.perf.cli import build_parser, main


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "repro-perf" in capsys.readouterr().err


def test_offers_calibrate_and_cache_only(capsys):
    assert "{calibrate-tlm,cache}" in build_parser().format_usage()
    with pytest.raises(SystemExit):
        main(["bench"])
    assert "invalid choice: 'bench'" in capsys.readouterr().err


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
