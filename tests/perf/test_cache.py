"""Unit tests for the content-addressed run cache (repro.perf.cache)."""

import json

import pytest

import repro
from repro.core.task import PeriodicTask, TaskSet
from repro.kernel.costs import KernelCosts
from repro.perf.cache import (
    RunCache,
    cache_key,
    canonical,
    fingerprint,
    taskset_rows,
)


class TestKeys:
    def test_stable_under_kwarg_order(self):
        assert cache_key(a=1, b="x") == cache_key(b="x", a=1)

    def test_sensitive_to_values_and_names(self):
        base = cache_key(a=1)
        assert base != cache_key(a=2)
        assert base != cache_key(b=1)

    def test_version_is_part_of_the_key(self):
        implicit = cache_key(a=1)
        assert implicit == cache_key(a=1, version=repro.__version__)
        assert implicit != cache_key(a=1, version="0.0.0-other")

    def test_dataclasses_hash_by_content_and_type(self):
        assert cache_key(costs=KernelCosts()) == cache_key(costs=KernelCosts())
        tweaked = KernelCosts(context_primitive=KernelCosts().context_primitive + 1)
        assert cache_key(costs=KernelCosts()) != cache_key(costs=tweaked)

    def test_canonical_json_safe(self):
        shape = canonical({"t": (1, 2), "costs": KernelCosts(), "f": 0.25})
        json.dumps(shape)  # must not raise
        assert shape["t"] == [1, 2]
        assert shape["costs"]["__dataclass__"] == "KernelCosts"

    def test_taskset_rows_capture_analysis_fields(self):
        ts = TaskSet([PeriodicTask(name="t", wcet=10, period=100)])
        promoted = TaskSet([
            PeriodicTask(name="t", wcet=10, period=100, promotion=50)
        ])
        assert fingerprint(taskset_rows(ts)) != fingerprint(taskset_rows(promoted))


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache_key(x=1)
        hit, value = cache.lookup(key)
        assert not hit and value is None
        cache.put(key, {"y": 2.5})
        hit, value = cache.lookup(key)
        assert hit and value == {"y": 2.5}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["stores"] == 1
        assert cache.hit_rate == 0.5

    def test_get_with_default(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get("0" * 64, default="absent") == "absent"

    def test_contains_and_len(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache_key(x="contains")
        assert key not in cache
        cache.put(key, 1)
        assert key in cache
        assert len(cache) == 1

    def test_survives_reopen(self, tmp_path):
        key = cache_key(x="persist")
        RunCache(tmp_path).put(key, [1.0, 2.0])
        assert RunCache(tmp_path).get(key) == [1.0, 2.0]

    def test_float_round_trip_exact(self, tmp_path):
        cache = RunCache(tmp_path)
        value = 10.743986666666668
        key = cache_key(x="float")
        cache.put(key, value)
        assert cache.get(key) == value

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache_key(x="corrupt")
        cache.put(key, 1)
        cache._path(key).write_text("{not json")
        hit, _ = cache.lookup(key)
        assert not hit

    @pytest.mark.parametrize("text", [
        "{}", "[]", '"str"', "null", '{"key": "other", "value": 9}',
        '{"value": 9}', "\xff\xfe",
    ])
    def test_malformed_entry_is_a_miss_and_put_repairs_it(self, tmp_path, text):
        cache = RunCache(tmp_path)
        key = cache_key(x="malformed")
        cache.put(key, 1)
        cache._path(key).write_text(text, encoding="latin-1")
        assert cache.lookup(key) == (False, None)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, 2)
        assert cache.lookup(key) == (True, 2)

    def test_sweep_over_corrupted_cache_recomputes(self, tmp_path):
        from repro.experiments.runner import sweep

        calls = []

        def measure(x):
            calls.append(x)
            return {"y": x * x}

        grid = {"x": [1, 2, 3]}
        clean = sweep(measure, grid)
        cache = RunCache(tmp_path)
        sweep(measure, grid, cache=cache, cache_tag="corrupt")
        entries = sorted(cache.root.glob("*/*.json"))
        for path, text in zip(entries, ["{}", "[]", '{"key": "x", "value": 9}']):
            path.write_text(text)
        del calls[:]
        recomputed = sweep(measure, grid, cache=cache, cache_tag="corrupt")
        assert sorted(calls) == [1, 2, 3]
        assert recomputed.rows == clean.rows
        assert recomputed.cache_stats["misses"] == 3
        repaired = sweep(measure, grid, cache=cache, cache_tag="corrupt")
        assert repaired.rows == clean.rows
        assert repaired.cache_stats["hits"] == 3

    def test_env_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        cache = RunCache()
        assert str(cache.root).endswith("envroot")


class TestGarbageCollection:
    def fill(self, tmp_path, n, mtime_step=10):
        """Populate a cache with n entries whose mtimes ascend by key index."""
        import os
        import time

        cache = RunCache(tmp_path)
        keys = [cache_key(x=f"gc-{i}") for i in range(n)]
        base = time.time() - n * mtime_step - 1_000
        for i, key in enumerate(keys):
            cache.put(key, {"index": i, "payload": "x" * 64})
            os.utime(cache._path(key), (base + i * mtime_step,) * 2)
        return cache, keys

    def test_gc_without_limits_is_a_report(self, tmp_path):
        cache, keys = self.fill(tmp_path, 4)
        report = cache.gc()
        assert report["evicted"] == 0
        assert report["entries_before"] == report["entries_after"] == 4
        assert report["bytes_before"] == report["bytes_after"] > 0
        assert all(key in cache for key in keys)

    def test_gc_max_entries_evicts_lru_first(self, tmp_path):
        cache, keys = self.fill(tmp_path, 6)
        report = cache.gc(max_entries=2)
        assert report["evicted"] == 4
        assert report["entries_after"] == 2
        # Oldest-used entries go first; the newest two survive.
        assert all(key not in cache for key in keys[:4])
        assert all(key in cache for key in keys[4:])

    def test_gc_max_bytes_evicts_down_to_budget(self, tmp_path):
        cache, keys = self.fill(tmp_path, 5)
        per_entry = cache.disk_usage() // 5
        report = cache.gc(max_bytes=2 * per_entry)
        assert report["bytes_after"] <= 2 * per_entry
        assert report["evicted"] >= 3
        assert keys[-1] in cache  # most recently used survives

    def test_gc_hit_refreshes_lru_rank(self, tmp_path):
        cache, keys = self.fill(tmp_path, 4)
        hit, _ = cache.lookup(keys[0])  # touch the oldest entry
        assert hit
        cache.gc(max_entries=1)
        assert keys[0] in cache  # survived because it was just used
        assert all(key not in cache for key in keys[1:])

    def test_gc_removes_orphaned_tmp_files(self, tmp_path):
        cache, _ = self.fill(tmp_path, 2)
        orphan = cache.root / "ab" / "deadbeef.tmp.1234"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text("torn write")
        report = cache.gc()
        assert report["removed_tmp"] == 1
        assert not orphan.exists()

    def test_gc_empty_cache(self, tmp_path):
        cache = RunCache(tmp_path / "never-created")
        report = cache.gc(max_bytes=0, max_entries=0)
        assert report["evicted"] == 0
        assert report["entries_before"] == 0
        assert cache.disk_usage() == 0

    def test_gc_prunes_emptied_fanout_dirs(self, tmp_path):
        cache, keys = self.fill(tmp_path, 3)
        cache.gc(max_entries=0)
        assert len(cache) == 0
        # No entry files remain; emptied prefix dirs are gone too.
        assert all(not p.is_dir() for p in cache.root.iterdir())


class TestPutErrors:
    """Satellite: RunCache.put must survive filesystem failures."""

    def test_replace_failure_retries_then_counts(self, tmp_path, monkeypatch):
        import os as os_module

        cache = RunCache(tmp_path / "cache")
        key = cache_key(x=1)

        calls = []

        def always_fails(src, dst):
            calls.append((src, dst))
            raise OSError("disk on fire")

        monkeypatch.setattr("repro.perf.cache.os.replace", always_fails)
        cache.put(key, {"v": 1})  # must not raise
        assert len(calls) == 2  # first attempt + one retry
        assert cache.put_errors == 1
        assert cache.stores == 0
        assert cache.stats()["put_errors"] == 1
        # The torn tmp file was cleaned up.
        assert not list(cache.root.glob("*/*.tmp.*"))

    def test_replace_retry_wins_after_gc_race(self, tmp_path, monkeypatch):
        import os as os_module

        cache = RunCache(tmp_path / "cache")
        key = cache_key(x=2)
        real_replace = os_module.replace
        attempts = []

        def flaky(src, dst):
            attempts.append(dst)
            if len(attempts) == 1:
                raise OSError("shard rmdir'd concurrently")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.perf.cache.os.replace", flaky)
        cache.put(key, {"v": 2})
        assert len(attempts) == 2
        assert cache.put_errors == 0
        assert cache.stores == 1
        assert cache.get(key) == {"v": 2}

    def test_unwritable_root_counts_put_error(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path / "cache")

        def no_mkdir(*args, **kwargs):
            raise OSError("read-only filesystem")

        monkeypatch.setattr("pathlib.Path.mkdir", no_mkdir)
        cache.put(cache_key(x=3), {"v": 3})  # must not raise
        assert cache.put_errors == 1
        assert cache.stores == 0
