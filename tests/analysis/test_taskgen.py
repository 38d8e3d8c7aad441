"""Tests for the synthetic task-set generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.taskgen import (
    random_periods,
    random_taskset,
    uunifast,
)


def test_uunifast_sums_to_target():
    rng = random.Random(42)
    for n in (1, 2, 5, 20):
        utils = uunifast(n, 1.5, rng)
        assert len(utils) == n
        assert sum(utils) == pytest.approx(1.5)
        assert all(u >= 0 for u in utils)


def test_uunifast_validates():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        uunifast(0, 1.0, rng)
    with pytest.raises(ValueError):
        uunifast(3, -1.0, rng)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 12), total=st.floats(0.1, 3.0))
def test_uunifast_property(seed, n, total):
    utils = uunifast(n, total, random.Random(seed))
    assert sum(utils) == pytest.approx(total, rel=1e-9)
    assert all(u >= 0 for u in utils)


def test_random_periods_within_bounds_and_granular():
    rng = random.Random(7)
    periods = random_periods(50, rng, minimum=10_000, maximum=100_000, granularity=500)
    assert all(p % 500 == 0 for p in periods)
    assert all(500 <= p <= 100_500 for p in periods)


def test_random_periods_validate():
    with pytest.raises(ValueError):
        random_periods(5, random.Random(0), minimum=0)


def test_random_taskset_is_reproducible():
    a = random_taskset(6, 0.8, seed=99)
    b = random_taskset(6, 0.8, seed=99)
    assert [(t.name, t.wcet, t.period) for t in a.periodic] == [
        (t.name, t.wcet, t.period) for t in b.periodic
    ]


def test_random_taskset_utilization_close_to_target():
    ts = random_taskset(10, 1.0, seed=5)
    assert ts.utilization == pytest.approx(1.0, abs=0.05)


def test_random_taskset_constrained_deadlines():
    ts = random_taskset(8, 0.8, seed=3, deadline_factor=0.7)
    for t in ts.periodic:
        assert t.wcet <= t.deadline <= t.period


def test_random_taskset_invalid_deadline_factor():
    with pytest.raises(ValueError):
        random_taskset(4, 0.5, seed=1, deadline_factor=1.5)


def test_random_taskset_aperiodics():
    ts = random_taskset(4, 0.5, seed=1, n_aperiodic=3, aperiodic_wcet=777)
    assert len(ts.aperiodic) == 3
    assert all(t.wcet == 777 for t in ts.aperiodic)
