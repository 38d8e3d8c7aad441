"""Unit tests for the parallel executor (repro.perf.executor)."""

import pytest

from repro.perf.cache import RunCache
from repro.perf.executor import (
    cached_pmap,
    chunk_indices,
    default_workers,
    picklable,
    pmap,
)


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom on {x}")


class TestChunking:
    def test_chunks_cover_all_indices_in_order(self):
        chunks = chunk_indices(11, 3)
        assert [i for r in chunks for i in r] == list(range(11))
        assert [len(r) for r in chunks] == [3, 3, 3, 2]

    def test_single_chunk(self):
        assert chunk_indices(2, 10) == [range(0, 2)]

    def test_bad_chunksize(self):
        with pytest.raises(ValueError):
            chunk_indices(5, 0)


class TestSerialPaths:
    def test_default_is_serial(self):
        stats = {}
        assert pmap(square, [1, 2, 3], stats=stats) == [1, 4, 9]
        assert stats["mode"] == "serial"

    def test_closure_falls_back(self):
        offset = 5
        stats = {}
        result = pmap(lambda x: x + offset, range(4), max_workers=4, stats=stats)
        assert result == [5, 6, 7, 8]
        assert stats["mode"] == "serial-unpicklable"

    def test_single_item_never_spawns(self):
        stats = {}
        assert pmap(square, [7], max_workers=8, stats=stats) == [49]
        assert stats["mode"] == "serial"

    def test_empty(self):
        assert pmap(square, [], max_workers=4) == []

    @pytest.mark.parametrize("items", [[], [1], [1, 2, 3]])
    def test_negative_workers_rejected(self, items):
        with pytest.raises(ValueError, match="max_workers"):
            pmap(square, items, max_workers=-1)

    def test_negative_workers_rejected_behind_a_full_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        cached_pmap(square, [2], cache=cache, keys=["k"])
        with pytest.raises(ValueError, match="max_workers"):
            cached_pmap(square, [2], max_workers=-1, cache=cache, keys=["k"])


class TestParallel:
    def test_matches_serial_in_order(self):
        items = list(range(37))
        stats = {}
        result = pmap(square, items, max_workers=2, chunksize=5, stats=stats)
        assert result == [square(x) for x in items]
        assert stats["mode"] == "parallel"
        assert stats["chunks"] == 8

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            pmap(boom, [1, 2], max_workers=2, chunksize=1)

    def test_zero_means_all_cpus(self):
        # max_workers=0/None resolves to the host CPU count; with two
        # items the pool is clamped to two workers either way.
        assert pmap(square, [2, 3], max_workers=0) == [4, 9]
        assert default_workers() >= 1


class TestPicklable:
    def test_module_function_is(self):
        assert picklable(square)

    def test_lambda_is_not(self):
        assert not picklable(lambda: None)


class TestCachedPmap:
    def test_mismatched_keys_rejected(self, tmp_path):
        cache = RunCache(tmp_path)
        with pytest.raises(ValueError, match="got 1 keys for 3 items"):
            cached_pmap(abs, [-1, -2, -3], cache=cache, keys=["k1"])
        with pytest.raises(ValueError, match="got 0 keys for 2 items"):
            cached_pmap(abs, [-1, -2], cache=cache)
        assert cache.hits == cache.misses == 0

    def test_computes_only_misses_in_item_order(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cached_pmap(square, [2, 3], cache=cache, keys=["a", "b"]) == [4, 9]
        assert cached_pmap(boom, [2], cache=cache, keys=["b"]) == [9]
        grown = cached_pmap(square, [2, 3, 4], max_workers=2, cache=cache,
                            keys=["a", "b", "c"])
        assert grown == [4, 9, 16]
        assert (cache.hits, cache.misses) == (3, 3)
