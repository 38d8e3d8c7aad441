"""Tests for the W_i recurrence and WCRT analysis."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.response_time import (
    busy_period_recurrence,
    higher_priority_tasks,
    response_time_table,
    worst_case_response_time,
)
from repro.core.task import PeriodicTask


def task(name, wcet, period, deadline=None, high=0):
    return PeriodicTask(name=name, wcet=wcet, period=period, deadline=deadline, high_priority=high)


def test_single_task_wcrt_is_wcet():
    t = task("a", 30, 100)
    result = worst_case_response_time(t, [t])
    assert result.schedulable
    assert result.value == 30


def test_classic_two_task_interference():
    # Textbook: hp task C=20 T=50; low task C=30 -> W = 30 + 2*20 = 70? iterate:
    # w1=30 -> ceil(30/50)*20=20 -> w2=50 -> ceil(50/50)*20=20 -> w3=50 stable
    hp = task("hp", 20, 50, high=2)
    lo = task("lo", 30, 200, high=1)
    result = worst_case_response_time(lo, [hp, lo])
    assert result.value == 50


def test_three_task_audsley_example():
    # Audsley-style: C=(3, 3, 5), T=(7, 12, 20) with priorities by rate.
    t1 = task("t1", 3, 7, high=3)
    t2 = task("t2", 3, 12, high=2)
    t3 = task("t3", 5, 20, high=1)
    table = response_time_table([t1, t2, t3])
    values = {r.task: r.wcrt for r in table}
    assert values["t1"] == 3
    assert values["t2"] == 6
    # w=5 -> 5+3+3=11 -> 11+6+3=14? iterate: ceil(11/7)*3=6, ceil(11/12)*3=3 -> 14
    # ceil(14/7)*3=6, ceil(14/12)*3=6 -> 17; ceil(17/7)*3=9, ceil(17/12)*3=6 -> 20
    # exceeds D=20? limit is D: w=20 == D -> ceil(20/7)*3=9, ceil(20/12)*3=6 -> 20 stable
    assert values["t3"] == 20


def test_unschedulable_detected():
    hp = task("hp", 60, 100, high=2)
    lo = task("lo", 50, 100, high=1)
    result = worst_case_response_time(lo, [hp, lo])
    assert not result.schedulable
    assert result.wcrt is None
    with pytest.raises(ValueError):
        _ = result.value


def test_higher_priority_ties_break_by_name():
    a = task("a", 10, 100, high=1)
    b = task("b", 10, 100, high=1)
    assert higher_priority_tasks(a, [a, b]) == [b]
    assert higher_priority_tasks(b, [a, b]) == []


def test_recurrence_validates_inputs():
    with pytest.raises(ValueError):
        busy_period_recurrence(0, [], limit=10)
    with pytest.raises(ValueError):
        busy_period_recurrence(10, [], limit=0)


@settings(max_examples=60, deadline=None)
@given(
    wcets=st.lists(st.integers(1, 50), min_size=1, max_size=5),
    periods=st.lists(st.integers(100, 1000), min_size=5, max_size=5),
)
def test_wcrt_bounds_property(wcets, periods):
    """W_i >= C_i always; W_i == C_i for the highest priority task."""
    tasks = [
        task(f"t{i}", c, p, high=len(wcets) - i)
        for i, (c, p) in enumerate(zip(wcets, periods))
    ]
    table = response_time_table(tasks)
    for t, result in zip(tasks, table):
        if result.schedulable:
            assert result.value >= t.wcet
    top = max(tasks, key=lambda t: t.high_priority)
    top_result = worst_case_response_time(top, tasks)
    assert top_result.value == top.wcet


@settings(max_examples=60, deadline=None)
@given(
    extra=st.integers(1, 30),
    base=st.integers(1, 30),
    period=st.integers(50, 500),
)
def test_wcrt_monotone_in_interference(extra, base, period):
    """Adding a higher-priority task never decreases W_i."""
    lo = task("lo", base, 10_000)
    hp = task("hp", extra, period, high=5)
    alone = worst_case_response_time(lo, [lo])
    with_hp = worst_case_response_time(lo, [lo, hp])
    if with_hp.schedulable:
        assert with_hp.value >= alone.value


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wcrt_fixpoint_property(data):
    """The returned W satisfies the recurrence equation exactly."""
    n = data.draw(st.integers(1, 4))
    tasks = []
    for i in range(n):
        c = data.draw(st.integers(1, 20), label=f"c{i}")
        t = data.draw(st.integers(80, 800), label=f"t{i}")
        tasks.append(task(f"t{i}", c, t, high=n - i))
    target = tasks[-1]
    result = worst_case_response_time(target, tasks)
    if result.schedulable:
        hp = higher_priority_tasks(target, tasks)
        expected = target.wcet + sum(
            math.ceil(result.value / other.period) * other.wcet for other in hp
        )
        assert expected == result.value


class TestWarmStartTable:
    """The warm-started table must equal the per-task cold analysis."""

    def check_table_matches_cold(self, tasks):
        table = response_time_table(tasks)
        cold = [worst_case_response_time(t, tasks) for t in tasks]
        assert [(r.task, r.wcrt, r.schedulable) for r in table] == [
            (r.task, r.wcrt, r.schedulable) for r in cold
        ]

    def test_identical_on_audsley_example(self):
        self.check_table_matches_cold([
            task("t1", 3, 7, high=3),
            task("t2", 3, 12, high=2),
            task("t3", 5, 20, high=1),
        ])

    def test_identical_with_unschedulable_task_mid_chain(self):
        # "mid" diverges (tight deadline); the chain must recover and
        # still warm-start "lo" from the last *converged* W.
        self.check_table_matches_cold([
            task("hp", 20, 50, high=3),
            task("mid", 40, 200, deadline=45, high=2),
            task("lo", 10, 400, high=1),
        ])

    def test_identical_under_arbitrary_input_order(self):
        tasks = [
            task("t3", 5, 20, high=1),
            task("t1", 3, 7, high=3),
            task("t2", 3, 12, high=2),
        ]
        self.check_table_matches_cold(tasks)
        assert [r.task for r in response_time_table(tasks)] == [
            "t3", "t1", "t2"
        ]

    def test_warm_start_skips_ramp_up_iterations(self):
        # High utilization: the cold recurrence crawls up from zero;
        # warm-started table entries must converge in fewer steps.
        tasks = [
            task("a", 9, 30, high=3),
            task("b", 9, 31, high=2),
            task("c", 9, 100, high=1),
        ]
        table = {r.task: r for r in response_time_table(tasks)}
        cold = worst_case_response_time(tasks[-1], tasks)
        assert table["c"].wcrt == cold.wcrt
        assert table["c"].iterations <= cold.iterations

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_identical_tables_property(self, data):
        n = data.draw(st.integers(1, 6))
        tasks = []
        for i in range(n):
            c = data.draw(st.integers(1, 40), label=f"c{i}")
            p = data.draw(st.integers(60, 900), label=f"p{i}")
            d = data.draw(
                st.one_of(st.none(), st.integers(40, p)), label=f"d{i}"
            )
            tasks.append(task(f"t{i}", c, p, deadline=d, high=n - i))
        self.check_table_matches_cold(tasks)

    def test_recurrence_rejects_negative_warm_start(self):
        with pytest.raises(ValueError):
            busy_period_recurrence(10, [], limit=100, w0=-1)


class TestDivergenceGuard:
    def test_guard_raises_clear_diagnostic(self):
        """At utilization >= 1 with a huge limit, the recurrence must not
        spin: the max_iterations guard raises RecurrenceDivergenceError
        naming the interferer utilization."""
        from repro.analysis.response_time import RecurrenceDivergenceError

        hog = task("hog", 1, 1, high=5)
        with pytest.raises(RecurrenceDivergenceError) as excinfo:
            busy_period_recurrence(1, [hog], limit=10**12, max_iterations=50)
        message = str(excinfo.value)
        assert "50 iterations" in message
        assert "utilization" in message

    def test_guard_not_triggered_by_convergent_sets(self):
        hp = task("hp", 20, 50, high=2)
        result = busy_period_recurrence(30, [hp], limit=200, max_iterations=10)
        assert result.schedulable and result.wcrt == 50

    def test_limit_exceeded_still_reports_unschedulable(self):
        """A diverging recurrence with a tight limit is 'unschedulable',
        not an exception -- the guard only fires past max_iterations."""
        hog = task("hog", 1, 1, high=5)
        result = busy_period_recurrence(1, [hog], limit=100)
        assert not result.schedulable


class TestRTAExtensions:
    def _hp(self, wcet, period, name="hp"):
        return PeriodicTask(name=name, wcet=wcet, period=period, high_priority=5)

    def test_blocking_adds_directly(self):
        plain = busy_period_recurrence(30, [self._hp(20, 100)], limit=1_000)
        blocked = busy_period_recurrence(
            30, [self._hp(20, 100)], limit=1_000, blocking=15
        )
        assert blocked.value == plain.value + 15

    def test_blocking_can_break_schedulability(self):
        result = busy_period_recurrence(
            50, [self._hp(40, 100)], limit=100, blocking=20
        )
        assert not result.schedulable

    def test_jitter_adds_interference_hits(self):
        # Without jitter: w = 30 + ceil(w/100)*20 -> 50.
        plain = busy_period_recurrence(30, [self._hp(20, 100)], limit=1_000)
        assert plain.value == 50
        # Jitter 60: ceil((50+60)/100) = 2 hits -> w = 70;
        # ceil((70+60)/100) = 2 -> stable at 70.
        jittered = busy_period_recurrence(
            30, [self._hp(20, 100)], limit=1_000, jitter={"hp": 60}
        )
        assert jittered.value == 70

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            busy_period_recurrence(10, [], limit=100, jitter={"x": -1})
        with pytest.raises(ValueError):
            busy_period_recurrence(10, [], limit=100, blocking=-1)

    def test_zero_jitter_is_identity(self):
        hp = self._hp(20, 100)
        plain = busy_period_recurrence(30, [hp], limit=1_000)
        zeroed = busy_period_recurrence(30, [hp], limit=1_000, jitter={"hp": 0})
        assert plain.value == zeroed.value
