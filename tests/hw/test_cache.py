"""Tests for the direct-mapped instruction cache."""

import pytest

from repro.hw.cache import DirectMappedICache


def test_cold_miss_then_hit():
    cache = DirectMappedICache(0, n_lines=4, line_words=4)
    assert not cache.lookup(0x100)
    cache.fill_line(0x100)
    assert cache.lookup(0x100)
    assert cache.hits == 1
    assert cache.misses == 1


def test_same_line_hits():
    cache = DirectMappedICache(0, n_lines=4, line_words=4)
    cache.fill_line(0x100)
    # 4 words * 4 bytes = 16-byte line; all in-line addresses hit.
    assert cache.lookup(0x104)
    assert cache.lookup(0x10C)


def test_conflict_eviction():
    cache = DirectMappedICache(0, n_lines=4, line_words=4)
    line_bytes = 16
    sets = 4
    a = 0
    b = a + sets * line_bytes  # same index, different tag
    cache.fill_line(a)
    assert cache.lookup(a)
    cache.fill_line(b)
    assert cache.lookup(b)
    assert not cache.lookup(a)


def test_power_of_two_lines_required():
    with pytest.raises(ValueError):
        DirectMappedICache(0, n_lines=3)


def test_hit_rate():
    cache = DirectMappedICache(0, n_lines=4, line_words=4)
    cache.lookup(0)          # miss
    cache.fill_line(0)
    cache.lookup(0)          # hit
    assert cache.hit_rate == pytest.approx(0.5)

