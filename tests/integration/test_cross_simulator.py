"""Cross-simulator consistency.

The three MPDP implementations (uniprocessor reference, theoretical
multiprocessor, full-system prototype) must agree wherever their
modelling assumptions coincide.  These tests pin those equivalences:

- on one processor, with tick-aligned periods and tick-rounded
  promotions, the theoretical simulator reproduces the uniprocessor
  dual-priority reference *exactly*;
- with hardware effects dialled to (near) zero, the prototype's
  response times approach the theoretical simulator's.
"""

import pytest

from repro.analysis import assign_promotions, partition, random_taskset
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.hw.microblaze import ExecutionProfile
from repro.kernel.costs import KernelCosts
from repro.kernel.microkernel import TaskBinding
from repro.simulators.prototype import PrototypeConfig, PrototypeSimulator
from repro.simulators.theoretical import TheoreticalSimulator
from repro.trace.metrics import compute_metrics
from tests.simulators.reference_dual_priority import DualPrioritySimulator

TICK = 10_000


def tick_aligned_taskset(seed):
    """Random set with periods that are exact tick multiples."""
    base = random_taskset(
        5, 0.6, seed=seed, min_period=100_000, max_period=500_000,
    )
    periodic = [
        PeriodicTask(
            name=t.name,
            wcet=t.wcet,
            period=(t.period // TICK) * TICK,
            low_priority=t.low_priority,
            high_priority=t.high_priority,
        )
        for t in base.periodic
    ]
    ts = TaskSet(periodic)
    return assign_promotions(ts, 1, tick=TICK)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_theoretical_matches_uniprocessor_reference(seed):
    ts = tick_aligned_taskset(seed)
    horizon = 2_000_000

    reference = DualPrioritySimulator(ts)
    reference.run(horizon)
    ref_finishes = sorted(
        (j.task.name, j.release, j.finish_time) for j in reference.finished
    )

    theo = TheoreticalSimulator(ts, 1, tick=TICK, overhead=0.0)
    theo.run(horizon)
    theo_finishes = sorted(
        (j.task.name, j.release, j.finish_time) for j in theo.finished_jobs
    )

    assert theo_finishes == ref_finishes


def test_prototype_approaches_theoretical_without_hardware_effects():
    """Strip (almost) all physical overheads from the prototype: the
    remaining gap to the idealised simulator must be small."""
    ts = TaskSet(
        [
            PeriodicTask(name="p1", wcet=200_000, period=2_000_000),
            PeriodicTask(name="p2", wcet=300_000, period=3_000_000),
        ],
        [AperiodicTask(name="evt", wcet=400_000)],
    ).with_deadline_monotonic_priorities()
    ts = partition(ts, 2)
    ts = assign_promotions(ts, 2, tick=100_000)
    arrivals = {"evt": [500_000]}
    horizon = 6_000_000

    theo = TheoreticalSimulator(ts, 2, tick=100_000, overhead=0.0,
                                aperiodic_arrivals=arrivals)
    theo.run(horizon)
    theo_resp = compute_metrics(theo.finished_jobs, horizon).response_of("evt").mean

    no_traffic = ExecutionProfile(access_period=10_000_000, access_words=1)
    bindings = {name: TaskBinding(profile=no_traffic, stack_words=0)
                for name in ("p1", "p2", "evt")}
    tiny = KernelCosts(
        irq_entry=1, irq_exit=1, scheduler_base=1, scheduler_per_job=1,
        queue_op_words=1, aperiodic_release=1, completion=1, ipi_raise=1,
        context_primitive=1, regfile_words=1,
    )
    proto = PrototypeSimulator(
        ts,
        PrototypeConfig(n_cpus=2, tick=100_000, scale=1, costs=tiny),
        bindings=bindings,
        aperiodic_arrivals=arrivals,
    )
    proto.run(horizon)
    proto_resp = compute_metrics(proto.finished_jobs, horizon).response_of("evt").mean

    assert proto_resp == pytest.approx(theo_resp, rel=0.02)


def test_prototype_and_theoretical_same_schedulability_verdict():
    """Both must finish the same jobs with zero misses on the same
    analysed set (the decisions come from the same policy)."""
    base = random_taskset(6, 1.0, seed=9, min_period=200_000, max_period=800_000)
    ts = partition(base, 2)
    ts = assign_promotions(ts, 2, tick=TICK)
    horizon = 3_000_000

    theo = TheoreticalSimulator(ts, 2, tick=TICK, overhead=0.0)
    theo.run(horizon)
    proto = PrototypeSimulator(ts, PrototypeConfig(n_cpus=2, tick=TICK, scale=1))
    proto.run(horizon)

    assert not [j for j in theo.finished_jobs if j.missed_deadline]
    assert not [j for j in proto.finished_jobs if j.missed_deadline]
    # Same job population within one period's slack.
    assert abs(len(theo.finished_jobs) - len(proto.finished_jobs)) <= len(ts.periodic)
