"""Property-based end-to-end invariants (hypothesis).

Random schedulable task sets through the theoretical simulator; the
paper's guarantees must hold on every one:

- no periodic deadline is ever missed when the offline test passed;
- jobs are conserved (everything released either finished or is still
  in flight at the horizon -- nothing lost, nothing duplicated);
- response times are bounded below by execution times;
- the policy's structural invariants hold at the end of the run.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.analysis import assign_promotions, partition
from repro.analysis.partitioning import PartitioningError
from repro.analysis.taskgen import random_taskset
from repro.core.task import AperiodicTask, TaskSet
from repro.simulators.oracle import run_oracle
from repro.simulators.theoretical import TheoreticalSimulator

TICK = 10_000
SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def build(seed, n_cpus, utilization, with_aperiodic):
    base = random_taskset(
        5,
        utilization * n_cpus,
        seed=seed,
        n_aperiodic=1 if with_aperiodic else 0,
        aperiodic_wcet=40_000,
        min_period=100_000,
        max_period=600_000,
    )
    try:
        ts = partition(base, n_cpus)
        return assign_promotions(ts, n_cpus, tick=TICK)
    except (PartitioningError, ValueError):
        # The heuristic may fail, or the tick-aware analysis may reject
        # a draw (W + tick > D); the guarantee only covers accepted sets.
        assume(False)


@SLOW
@given(
    seed=st.integers(0, 5_000),
    n_cpus=st.integers(1, 4),
    utilization=st.floats(0.2, 0.55),
)
def test_no_deadline_misses_on_analysed_sets(seed, n_cpus, utilization):
    ts = build(seed, n_cpus, utilization, with_aperiodic=False)
    run = run_oracle("theoretical", ts, n_cpus, 2_000_000, tick=TICK, overhead=0.0)
    assert run.misses == []
    run.sim.policy.check_invariants()


@SLOW
@given(
    seed=st.integers(0, 5_000),
    n_cpus=st.integers(2, 3),
    arrival=st.integers(0, 1_000_000),
)
def test_job_conservation(seed, n_cpus, arrival):
    ts = build(seed, n_cpus, 0.4, with_aperiodic=True)
    sim = TheoreticalSimulator(
        ts, n_cpus, tick=TICK, overhead=0.0,
        aperiodic_arrivals={"a0": [arrival]},
    )
    horizon = 2_000_000
    sim.run(horizon)

    in_flight = (
        len(sim.policy.periodic_ready)
        + len(sim.policy.aperiodic_ready)
        + sum(len(q) for q in sim.policy.local)
        + sum(1 for j in sim.policy.running if j is not None)
    )
    # Every periodic task contributes exactly (finished + in-flight +
    # parked) jobs, one live instance each.
    finished_periodic = sum(1 for j in sim.finished_jobs if j.is_periodic)
    parked = len(sim.policy.waiting)
    finished_aperiodic = len(sim.finished_jobs) - finished_periodic
    released = sim.policy.released_count

    # Parked + in-flight + finished periodic = releases + parked-but-
    # never-released (each task always has exactly one pending job).
    assert parked + in_flight + len(sim.finished_jobs) >= released
    assert finished_aperiodic <= 1
    # No duplicate jobs anywhere.
    sim.policy.check_invariants()

    for job in sim.finished_jobs:
        assert job.remaining == 0
        assert job.response_time >= job.task.acet


@SLOW
@given(seed=st.integers(0, 5_000))
def test_aperiodic_never_blocks_hard_deadlines(seed):
    """Flood the system with aperiodic arrivals: periodic deadlines
    must still all hold (the point of the promotion mechanism)."""
    ts = build(seed, 2, 0.45, with_aperiodic=True)
    arrivals = list(range(50_000, 1_900_000, 150_000))
    run = run_oracle(
        "theoretical", ts, 2, 2_000_000, tick=TICK, overhead=0.0,
        aperiodic_arrivals={"a0": arrivals},
    )
    assert run.misses == []


@SLOW
@given(
    seed=st.integers(0, 5_000),
    utilization=st.floats(0.2, 0.5),
)
def test_response_time_upper_bound_from_analysis(seed, utilization):
    """Every periodic response time is bounded by the offline W_i...
    once promoted the task runs at fixed priority on its home cpu, so
    finish <= promotion + W = release + U + (D - U) = release + D.
    The sharper bound finish <= release + D is exactly deadline
    satisfaction, checked here on every job whose deadline falls by
    the horizon, finished or not."""
    ts = build(seed, 2, utilization, with_aperiodic=False)
    run = run_oracle("theoretical", ts, 2, 1_500_000, tick=TICK, overhead=0.0)
    assert run.misses == []
    assert run.worst_response_ratio <= 1.0
