"""Fault plans: validation, serialization, seeded generation."""

import re

import pytest

from repro.faults.plan import (
    FAULT_KINDS,
    KERNEL_KINDS,
    FaultEvent,
    FaultPlan,
    random_plan,
)
from repro.perf.cache import cache_key


def test_event_validation_rejects_bad_kind():
    with pytest.raises(ValueError):
        FaultEvent(kind="cosmic_ray", time=100)


def test_event_validation_rejects_negative_time():
    with pytest.raises(ValueError):
        FaultEvent(kind="timer_glitch", time=-1, arg=1)


def test_kernel_faults_require_a_task():
    for kind in ("wcet_overrun", "task_crash"):
        with pytest.raises(ValueError):
            FaultEvent(kind=kind, time=100)


def test_bitflip_memory_requires_address_and_bit():
    with pytest.raises(ValueError):
        FaultEvent(kind="bitflip_memory", time=100)
    event = FaultEvent(kind="bitflip_memory", time=100, addr=0x4000_0000, arg=7)
    assert event.addr == 0x4000_0000


def test_every_kind_is_constructible():
    fixtures = {
        "ipi_drop": dict(duration=1_000),
        "ipi_duplicate": dict(duration=1_000),
        "ipi_delay": dict(duration=1_000, arg=50),
        "bus_stall": dict(duration=200),
        "timer_glitch": dict(arg=1),
        "bitflip_memory": dict(addr=0x4000_0000, arg=3),
        "bitflip_register": dict(cpu=0),
        "wcet_overrun": dict(task="a", arg=500),
        "task_crash": dict(task="a"),
    }
    assert set(fixtures) == set(FAULT_KINDS)
    for kind, kwargs in fixtures.items():
        FaultEvent(kind=kind, time=10, **kwargs)


def test_plan_json_round_trip():
    plan = random_plan(seed=3, horizon=200_000, tasks={"a": 5_000},
                       n_faults=3, name="rt")
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert len(plan) == 3 and not plan.is_empty


def test_same_seed_same_plan_different_seed_differs():
    make = lambda s: random_plan(seed=s, horizon=300_000,
                                 tasks={"a": 5_000, "b": 7_000}, n_faults=4)
    assert make(1) == make(1)
    assert make(1) != make(2)


def test_plan_cache_key_is_content_addressed():
    plan = random_plan(seed=1, horizon=300_000, tasks={"a": 5_000}, n_faults=2)
    same = FaultPlan.from_dict(plan.to_dict())
    other = random_plan(seed=2, horizon=300_000, tasks={"a": 5_000}, n_faults=2)
    assert cache_key(plan=plan.to_dict()) == cache_key(plan=same.to_dict())
    assert cache_key(plan=plan.to_dict()) != cache_key(plan=other.to_dict())


def test_min_gap_spaces_kernel_events():
    plan = random_plan(seed=5, horizon=2_000_000, tasks={"a": 5_000},
                       n_faults=6, min_gap=100_000)
    assert plan.min_interarrival() >= 100_000
    assert all(e.kind in KERNEL_KINDS for e in plan.kernel_events())


def test_overrun_extra_capped_by_wcet():
    plan = random_plan(seed=9, horizon=1_000_000, tasks={"a": 4_000},
                       n_faults=8, kinds=("wcet_overrun",))
    for event in plan.events:
        assert 1 <= event.arg <= 4_000


@pytest.mark.parametrize("text, field", [
    ('{"events": [{"kind": "timer_glitch", "time": 52000.5, "arg": 1}]}', "time"),
    ('{"events": [{"kind": "timer_glitch", "time": true, "arg": 1}]}', "time"),
    ('{"events": [{"kind": "timer_glitch", "time": "52000", "arg": 1}]}', "time"),
    ('{"events": [{"kind": "bus_stall", "time": 5, "duration": 2.5}]}', "duration"),
    ('{"events": [{"kind": "timer_glitch", "time": 5, "arg": false}]}', "arg"),
    ('{"events": [{"kind": "bitflip_register", "time": 5, "cpu": "0"}]}', "cpu"),
    ('{"events": [{"kind": "bitflip_memory", "time": 5, "addr": 1.0}]}', "addr"),
    ('{"events": [{"kind": "task_crash", "time": 5, "task": 3}]}', "task"),
    ('{"events": [{"kind": "task_crash", "task": "a"}]}', "time"),
    ('{"events": [{"kind": "task_crash", "time": 5, "task": "a", "x": 1}]}', "'x'"),
    ('[1, 2]', "plan"),
    ('{"events": 5}', "events"),
    ('{"events": [5]}', "events[0]"),
])
def test_malformed_plan_json_raises_value_error_naming_the_field(text, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        FaultPlan.from_json(text)


def test_random_plans_of_every_kind_are_valid():
    for seed in range(20):
        plan = random_plan(seed=seed, horizon=400_000,
                           tasks={"a": 8_000, "tight": 9_000}, n_faults=6,
                           kinds=FAULT_KINDS)
        assert FaultPlan.from_json(plan.to_json()) == plan


def test_random_bitflips_land_in_ddr_and_fire():
    from repro.faults.plan import DDR_BASE
    from repro.faults.scenarios import demo_taskset, run_scenario

    wcets = {task.name: task.wcet for task in demo_taskset().periodic}
    plan = random_plan(seed=0, horizon=400_000, tasks=wcets, n_faults=3,
                       kinds=["bitflip_memory"])
    assert all(DDR_BASE <= e.addr < DDR_BASE + 4_096 for e in plan.events)
    result = run_scenario(plan=plan)
    assert result["injector"]["by_kind"] == {"bitflip_memory": len(plan)}
