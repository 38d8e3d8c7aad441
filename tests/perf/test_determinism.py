"""Determinism sentinel: the bucket and heap event queues are interchangeable.

The bucketed timer queue is the engine's default and the flat heap its
reference (docs/PERF.md, "Determinism sentinel").  A full kernel-on-SoC
run must come out bit for bit the same on either -- finished jobs,
trace, kernel and injector stats, final time -- with or without an
injected fault plan.  Runs that crash on a known kernel defect count
too: both queues must then raise the same error.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.faults.plan import FAULT_KINDS, random_plan
from repro.faults.scenarios import baseline_run, demo_taskset, run_scenario
from repro.sim.engine import Simulator

DEMO_WCETS = {task.name: task.wcet for task in demo_taskset().periodic}


def on_queue(kind, run, *args, **kwargs):
    """``run(*args, **kwargs)`` with every new Simulator on queue ``kind``.

    Returns the result, or ``(exception type name, message)`` when the
    run raised, so crashing runs can be compared like finished ones.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "DEFAULT_QUEUE", kind)
        assert Simulator().queue_kind == kind
        try:
            return run(*args, **kwargs)
        except Exception as exc:
            return type(exc).__name__, str(exc)


def test_baseline_run_identical_on_heap_and_bucket():
    heap = on_queue("heap", baseline_run)
    bucket = on_queue("bucket", baseline_run)
    assert isinstance(heap, dict), heap
    assert heap["jobs"] and heap["trace"]
    assert heap == bucket


# Each example is three kernel runs, so a failure is reported as drawn
# (a seed and a few knobs reproduce it) instead of shrunk.
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    seed=st.integers(0, 10_000),
    n_faults=st.integers(0, 6),
    kinds=st.sets(st.sampled_from(FAULT_KINDS), min_size=1),
    recovery=st.booleans(),
)
def test_fault_plan_runs_identical_on_heap_and_bucket(seed, n_faults, kinds,
                                                       recovery):
    plan = random_plan(seed=seed, horizon=400_000, tasks=DEMO_WCETS,
                       n_faults=n_faults, kinds=sorted(kinds))
    config = {"enabled": True} if recovery else None
    heap = on_queue("heap", run_scenario, plan=plan, recovery=config)
    bucket = on_queue("bucket", run_scenario, plan=plan, recovery=config)
    replay = on_queue("bucket", run_scenario, plan=plan, recovery=config)
    assert heap == bucket
    assert bucket == replay
