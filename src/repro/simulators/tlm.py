"""Transaction-level middle-fidelity simulator (the ladder's fast rung).

The reproduction has two fidelity endpoints: the cycle-approximate
prototype (every bus transaction arbitrated individually, ~seconds per
Figure-4 cell) and the theoretical simulator (all physical effects
collapsed into a flat 2 % inflation).  This module is the middle rung,
following the SystemC/TLM2 playbook (PAPERS.md, arXiv:1408.0982): the
*same* MPDP decision procedure and kernel-cost constants as the
prototype, but no per-cycle stepping -- each task segment between two
scheduling events is a single **timed block** whose real duration is

    real = kernel_debt + nominal * stretch

where ``stretch`` folds bus/crossbar contention into a calibrated
per-transaction cost (:func:`repro.hw.bus.analytic_txn_wait`) computed
from the execution profiles of the cores running *concurrently*, and
``kernel_debt`` charges the exact :class:`~repro.kernel.costs.KernelCosts`
cycles (IRQ entry/exit, scheduling cycle, queue traffic, context
moves, IPIs) the prototype kernel would spend at that event.  Ticks,
aperiodic arrivals, promotions and completions are still delivered at
exact instants through the existing :mod:`repro.sim.engine` event
queue, so schedules stay bit-for-bit deterministic.

Because nothing steps per cycle, the TLM rung is scale-free: it runs
full-size workloads (scale=1), about 10 ms per Figure-4 arrival phase
(arrival + 25 s simulated).  Over the 27 runs of the Figure-4 grid the
prototype at scale=1000 takes 5.6-5.8 times its wall time (2-CPU x86-64
host, Python 3.11).  It tracks the prototype's per-task worst-case
response times within the calibrated tolerance recorded in
:data:`DEFAULT_COST_TABLE` (see ``repro-perf calibrate-tlm`` and the
"Fidelity ladder" section of docs/PERF.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import TICK
from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, TaskSet
from repro.hw.bus import analytic_txn_waits
from repro.hw.intc import MultiprocessorInterruptController
from repro.hw.memory import DDRMemory
from repro.kernel.context import BURST_WORDS
from repro.kernel.costs import KernelCosts
from repro.kernel.microkernel import TaskBinding
from repro.sim.engine import Simulator
from repro.simulators.prototype import DEFAULT_SCALE
from repro.trace.recorder import TraceRecorder

__all__ = [
    "TLMCostTable",
    "TLMSimulator",
    "DEFAULT_COST_TABLE",
    "ANCHOR_CELLS",
    "anchor_prototype_reference",
    "anchor_tlm_run",
    "per_task_wcrt",
    "calibrate",
]

#: One MPIC register access over the OPB (acknowledge or EOI read/write).
MPIC_ACCESS = MultiprocessorInterruptController.REGISTERS.access_latency(1)

#: The Figure-4 cells the cost table is calibrated against: one per
#: processor count, spanning the utilization range the paper sweeps.
ANCHOR_CELLS: Tuple[Tuple[int, float], ...] = ((2, 0.40), (3, 0.50), (4, 0.60))


def _ddr_burst_latency(words: int) -> int:
    """Uncontended DDR cycles to move ``words`` in BURST_WORDS bursts."""
    if words <= 0:
        return 0
    full, rem = divmod(words, BURST_WORDS)
    latency = full * DDRMemory.FIRST_WORD + full * DDRMemory.PER_WORD * (
        BURST_WORDS - 1
    )
    if rem:
        latency += DDRMemory.FIRST_WORD + DDRMemory.PER_WORD * (rem - 1)
    return latency


@dataclass(frozen=True)
class TLMCostTable:
    """Calibrated per-transaction contention costs.

    ``wait_gain`` scales the analytic arbitration wait each shared
    transaction pays when other cores are executing concurrently
    (:func:`repro.hw.bus.analytic_txn_wait`); ``priority_skew`` tilts
    that wait across the active masters to model the arbiter's fixed
    cpu-id priority order; ``base_overhead`` is the residual uniform
    inflation covering effects the transaction model does not carry
    individually (cold i-cache refills, MPIC rerouting, kernel-path
    bus contention).  ``residual`` records the maximum relative
    per-task WCRT deviation against the prototype over
    :data:`ANCHOR_CELLS` at these parameters -- the accuracy bound the
    tests and the bench gate hold the rung to.
    """

    wait_gain: float = 1.0
    base_overhead: float = 0.0
    priority_skew: float = 0.0
    residual: float = 1.0

    def __post_init__(self):
        if self.wait_gain < 0:
            raise ValueError("wait_gain must be non-negative")
        if self.base_overhead < 0:
            raise ValueError("base_overhead must be non-negative")
        if not 0.0 <= self.priority_skew <= 1.0:
            raise ValueError("priority_skew must be in [0, 1]")
        if self.residual < 0:
            raise ValueError("residual must be non-negative")

    def to_dict(self) -> Dict[str, float]:
        return {
            "wait_gain": self.wait_gain,
            "base_overhead": self.base_overhead,
            "priority_skew": self.priority_skew,
            "residual": self.residual,
        }


#: Parameters fitted by ``repro-perf calibrate-tlm`` against prototype
#: runs of the :data:`ANCHOR_CELLS` (scale=1000, arrival phase 1.0 s).
#: Regenerate with the CLI after changing the hardware or kernel-cost
#: models; ``residual`` is the measured accuracy bound at this fit.
DEFAULT_COST_TABLE = TLMCostTable(
    wait_gain=0.5, base_overhead=0.02, priority_skew=0.25, residual=0.3624
)


class TLMSimulator:
    """Event-driven MPDP run with per-transaction-window contention.

    Drop-in peer of :class:`~repro.simulators.theoretical.TheoreticalSimulator`
    and :class:`~repro.simulators.prototype.PrototypeSimulator`: built
    by :func:`repro.simulators.make_simulator`, same trace vocabulary,
    same ``finished_jobs`` / ``stats()`` / ``to_full_scale`` queries.
    Runs the workload at full scale (``scale`` is structurally 1 --
    there is no per-cycle work to amortise).

    Parameters
    ----------
    taskset:
        Analysed task set (promotions + partition assigned).
    n_cpus:
        Number of processors.
    tick:
        Scheduling period in cycles.
    bindings:
        Per-task :class:`~repro.kernel.microkernel.TaskBinding`
        (execution profile for the contention model, stack size for
        context-move costs); unbound tasks get the defaults.
    aperiodic_arrivals:
        Mapping task name -> absolute arrival cycles, merged with the
        arrivals on the task objects (exactly as the peers do).
    costs:
        Kernel-path cycle constants (shared with the prototype).
    table:
        Calibrated contention parameters.
    """

    #: Structural scale: nothing steps per cycle, so the workload
    #: always runs full-size.
    scale = 1

    def __init__(
        self,
        taskset: TaskSet,
        n_cpus: int,
        tick: int = TICK,
        bindings: Optional[Dict[str, TaskBinding]] = None,
        aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
        trace: Optional[TraceRecorder] = None,
        metrics=None,
        costs: Optional[KernelCosts] = None,
        table: TLMCostTable = DEFAULT_COST_TABLE,
    ):
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.taskset = taskset
        self.n_cpus = n_cpus
        self.tick = tick
        self.costs = costs or KernelCosts()
        self.table = table
        self.policy = MPDPScheduler(taskset, n_cpus)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.sim = Simulator()

        self.bindings = dict(bindings or {})
        self._default_binding = TaskBinding()
        self._queue_traffic_memo: Dict[int, int] = {}
        #: IRQ entry/exit plus the two MPIC register accesses every
        #: interrupt pays (acknowledge + EOI) -- identical for timer,
        #: CAN and inter-processor interrupts.
        self._irq_cycles = (
            self.costs.irq_entry + self.costs.irq_exit + 2 * MPIC_ACCESS
        )
        #: Kernel cycles of an aperiodic release (interrupt, handler and
        #: one job's task-table traffic) and of a completion (handler
        #: and the same traffic), both fixed for the run.
        self._arrival_cycles = (
            self._irq_cycles
            + self.costs.aperiodic_release
            + self._queue_traffic_cycles(1)
        )
        self._completion_cycles = (
            self.costs.completion + self._queue_traffic_cycles(1)
        )

        # Per-task cached transaction characterisation.
        self._txn_latency: Dict[str, int] = {}
        self._txn_period: Dict[str, int] = {}
        self._bus_share: Dict[str, float] = {}
        #: name -> (bus share, float latency, txn period): the bus
        #: profile :meth:`_recompute_stretches` keys its memo on.
        #: Distinct tasks with the same execution profile produce the
        #: same stretches, so keying on the profile (not the name)
        #: collapses equivalent running sets into one memo entry.
        self._profile: Dict[str, Tuple[float, float, int]] = {}
        self._ctx_cycles: Dict[str, int] = {}
        for task in taskset:
            binding = self._binding_of_name(task.name)
            profile = binding.profile
            latency = DDRMemory.FIRST_WORD + DDRMemory.PER_WORD * (
                profile.access_words - 1
            )
            self._txn_latency[task.name] = latency
            self._txn_period[task.name] = profile.access_period
            self._bus_share[task.name] = latency / profile.access_period
            self._profile[task.name] = (
                self._bus_share[task.name], float(latency),
                profile.access_period,
            )
            # One context save/restore half for this task (fixed words).
            self._ctx_cycles[task.name] = self.costs.context_primitive + (
                _ddr_burst_latency(self.costs.regfile_words + binding.stack_words)
            )

        # Per-cpu block state.
        self._rem: Dict[int, float] = {}            # job uid -> nominal left
        self._debt: List[int] = [0] * n_cpus        # kernel cycles to pay
        self._block_start: List[int] = [0] * n_cpus
        self._stretch: List[float] = [1.0] * n_cpus
        # Completion arming.  ``_armed[cpu]`` is the (job uid, true
        # finish instant) pair; ``_sched[cpu]`` the earliest engine
        # event outstanding for the cpu (superseded events cancel
        # lazily by instant mismatch); ``_basis_job[cpu]`` and
        # ``_basis_stretch[cpu]`` the job and stretch the armed instant
        # was computed from and ``_debt_dirty[cpu]`` whether kernel debt
        # was added since -- together they tell when the armed instant
        # is still valid, so unchanged processors are not re-armed at
        # every event.
        self._armed: List[Optional[Tuple[int, int]]] = [None] * n_cpus
        self._sched: List[Optional[int]] = [None] * n_cpus
        self._basis_job: List[Optional[Job]] = [None] * n_cpus
        self._basis_stretch: List[float] = [0.0] * n_cpus
        self._debt_dirty: List[bool] = [False] * n_cpus
        self._complete_cbs = [
            partial(self._on_complete, cpu) for cpu in range(n_cpus)
        ]
        self._stretch_memo: Dict[Tuple, Tuple[float, ...]] = {}
        #: Key the factors in ``_stretch`` were computed from; lets a
        #: recompute with unchanged per-cpu profiles return immediately.
        self._stretch_key: Tuple = ()
        # Mirror of the running tasks' names, maintained incrementally
        # wherever ``policy.running`` changes, so the memo key is a
        # plain tuple() away instead of an attribute walk per cpu.
        self._running_names: List[Optional[str]] = [None] * n_cpus
        #: Whether ``_running_names`` changed since the stretch factors
        #: were last recomputed; unchanged names mean unchanged factors,
        #: so :meth:`_reschedule` skips the recompute.
        self._names_changed = False
        self._aper_index: Dict[str, int] = {}

        # Statistics.
        self.context_switches = 0
        self.scheduling_cycles = 0
        self.aperiodic_releases = 0
        self.ipis = 0
        self.transactions_modeled = 0.0
        self.contention_wait_cycles = 0.0

        # Observability (mirrors the kernel: handles resolved once).
        self.metrics = metrics
        self._m_txn = None
        if metrics is not None:
            self._m_txn = metrics.counter(
                "tlm_transactions_total",
                help="shared-memory transactions folded into TLM timed blocks",
            )
            metrics.gauge(
                "tlm_calibration_residual",
                help="max relative WCRT deviation of the calibrated cost "
                "table vs the prototype on the anchor cells",
            ).set(table.residual)

        # Aperiodic arrivals at exact instants through the event queue.
        merged = taskset.arrivals_with(aperiodic_arrivals)
        for name in sorted(merged):
            task = taskset.by_name(name)
            for time in sorted(merged[name]):
                self.sim.schedule_at(time, lambda t=task: self._on_arrival(t))

        self._started = False

    # ------------------------------------------------------------------ control
    def run(self, until: int) -> List[Job]:
        """Simulate to ``until`` cycles; returns the finished jobs."""
        if not self._started:
            self._started = True
            self.sim.schedule_at(self.sim.now, self._on_tick)
        self.sim.run(until=until)
        return self.policy.finished_jobs

    @property
    def finished_jobs(self) -> List[Job]:
        return self.policy.finished_jobs

    def to_full_scale(self, cycles):
        """Already full-scale (see :attr:`scale`)."""
        return cycles

    def stats(self) -> dict:
        return {
            "context_switches": self.context_switches,
            "scheduling_cycles": self.scheduling_cycles,
            "aperiodic_releases": self.aperiodic_releases,
            "promotions": self.policy.promotion_count,
            "ipis": self.ipis,
            "tlm_transactions": round(self.transactions_modeled),
            "tlm_contention_wait_cycles": round(self.contention_wait_cycles),
        }

    # ---------------------------------------------------------------- utilities
    def _binding_of_name(self, name: str) -> TaskBinding:
        return self.bindings.get(name, self._default_binding)

    def _queue_traffic_cycles(self, jobs_moved: int) -> int:
        """Uncontended task-table traffic for a queue manipulation."""
        cycles = self._queue_traffic_memo.get(jobs_moved)
        if cycles is None:
            cycles = _ddr_burst_latency(self.costs.queue_op_words * max(1, jobs_moved))
            self._queue_traffic_memo[jobs_moved] = cycles
        return cycles

    def _switch_cycles(self, old: Optional[Job], new: Optional[Job]) -> int:
        """Context save/restore cycles for one processor's switch."""
        cycles = 0
        if old is not None and old.remaining > 0:
            cycles += self._ctx_cycles[old.task.name]
        if new is not None:
            cycles += self._ctx_cycles[new.task.name]
        return cycles

    # ------------------------------------------------------------ block algebra
    def _recompute_stretches(self) -> None:
        """Per-cpu slowdown factors for the current running set.

        Memoized on the tuple of per-cpu bus profiles (share, latency,
        period): the factors depend only on what traffic shares the
        bus, not on task identity, so running sets that differ only in
        which same-profile task occupies a cpu hit the same entry.
        """
        self._names_changed = False
        # An idle cpu's name is None, which no profile is keyed by.
        key = tuple(map(self._profile.get, self._running_names))
        if key == self._stretch_key:
            return  # same bus profiles on every cpu: factors are current
        memo = self._stretch_memo.get(key)
        if memo is None:
            shares = [p[0] if p is not None else 0.0 for p in key]
            latencies = [p[1] if p is not None else 0.0 for p in key]
            base = self.table.base_overhead
            waits = analytic_txn_waits(
                shares,
                latencies,
                gain=self.table.wait_gain,
                skew=self.table.priority_skew,
            )
            memo = tuple(
                1.0 + base + waits[cpu] / p[2] if p is not None else 1.0
                for cpu, p in enumerate(key)
            )
            self._stretch_memo[key] = memo
        self._stretch_key = key
        self._stretch[:] = memo

    def _retime(self, now: int) -> None:
        """Close every open timed block at ``now``: pay kernel debt,
        convert the remaining elapsed real time into nominal progress at
        the block's stretch factor, and account the transactions the
        block folded in.  An idle processor has no block: its start is
        set when it is given a job (:meth:`_reschedule_completions`)."""
        rems = self._rem
        debts = self._debt
        starts = self._block_start
        stretches = self._stretch
        periods = self._txn_period
        m_txn = self._m_txn
        trace = self.trace if self.trace.enabled else None
        # The float sums take each block's term in cpu order (which fixes
        # their rounding); locals only spare the attribute writes.
        transactions = self.transactions_modeled
        waits = self.contention_wait_cycles
        for cpu, job in enumerate(self.policy.running):
            if job is None:
                continue
            start = starts[cpu]
            elapsed = now - start
            starts[cpu] = now
            if elapsed <= 0:
                continue
            debt_paid = debts[cpu]
            if debt_paid:
                if debt_paid > elapsed:
                    debt_paid = elapsed
                debts[cpu] -= debt_paid
                elapsed -= debt_paid
            if elapsed <= 0:
                continue
            stretch = stretches[cpu]
            progress = elapsed / stretch
            rem = rems[job.uid] - progress
            if rem < 0.0:
                rem = 0.0
            rems[job.uid] = rem
            # Mirror the integer view the policy reads.  Floor at 1 even
            # when the float remainder hit zero: only :meth:`_on_complete`
            # retires a job (``remaining > 0`` keeps it live in the
            # queues if a coinciding event preempts it first).
            nominal_left = int(rem)
            job.remaining = nominal_left if nominal_left > 0 else 1
            txns = progress / periods[job.task.name]
            transactions += txns
            waits += elapsed - progress
            if m_txn is not None:
                m_txn.inc(txns)
            if trace is not None:
                trace.record(
                    now, "tlm_block", job=job.name, cpu=cpu,
                    info=f"start={start + debt_paid} nominal={progress:.0f} "
                    f"stretch={stretch:.4f}",
                )
        self.transactions_modeled = transactions
        self.contention_wait_cycles = waits

    def _reschedule_completions(self, now: int) -> None:
        """Open a fresh timed block per running job and arm its finish.

        A cpu is re-armed only when its arming basis changed: a new
        job, a new stretch factor, or kernel debt added since the last
        arming.  (Pure elapsed time does not invalidate an armed
        instant -- :meth:`_retime` keeps ``_rem`` consistent with it.)
        An idle cpu is skipped and keeps its last arming: :meth:`_on_complete`
        finds no job running there, and the switch that gives it a job
        again adds kernel debt, so that stale basis is never trusted.
        Every caller closed the blocks at ``now`` first (:meth:`_retime`
        restarts each busy cpu's block), so only a re-armed cpu, which
        may have been idle then, needs its block start set here.
        An engine event is scheduled only when the finish moved
        *earlier* than the earliest outstanding event; finishes that
        moved later are reached lazily -- the pending event fires at
        the stale instant, sees the armed instant lies ahead and
        re-schedules itself there, so a run of stretch increases
        coalesces into one extra event instead of one per change.
        """
        ceil = math.ceil
        armed_list = self._armed
        basis_jobs = self._basis_job
        basis_stretches = self._basis_stretch
        dirty_list = self._debt_dirty
        sched_list = self._sched
        stretches = self._stretch
        debts = self._debt
        rems = self._rem
        starts = self._block_start
        for cpu, job in enumerate(self.policy.running):
            if job is None:
                continue
            stretch = stretches[cpu]
            if (
                not dirty_list[cpu]
                and basis_jobs[cpu] is job
                and basis_stretches[cpu] == stretch
            ):
                continue
            basis_jobs[cpu] = job
            basis_stretches[cpu] = stretch
            dirty_list[cpu] = False
            starts[cpu] = now
            length = debts[cpu] + ceil(rems[job.uid] * stretch)
            finish = now + (length if length > 1 else 1)
            armed_list[cpu] = (job.uid, finish)
            sched = sched_list[cpu]
            if sched is None or sched > finish:
                sched_list[cpu] = finish
                self.sim.schedule_at(finish, self._complete_cbs[cpu])

    # -------------------------------------------------------------- event logic
    def _reschedule(self, now: int, event_cpu: int) -> None:
        """Take the policy's decision on ``event_cpu``, which pays the
        context traffic and, for every other processor switched, an
        IPI; then re-time the blocks."""
        allocation = self.policy.reschedule(now)
        switches = allocation.switches
        self.context_switches += len(switches)
        trace_on = self.trace.enabled
        assignment = allocation.assignment
        previous = allocation.previous
        for cpu in switches:
            job = assignment[cpu]
            old = previous[cpu]
            self._running_names[cpu] = job.task.name if job is not None else None
            self._names_changed = True
            if trace_on and old is not None and old.remaining > 0 and old is not job:
                self.trace.record(now, "preempt", job=old.name, cpu=cpu)
            if job is not None:
                if job.uid not in self._rem:
                    self._rem[job.uid] = float(job.remaining)
                if trace_on:
                    self.trace.record(now, "dispatch", job=job.name, cpu=cpu)
            elif trace_on:
                self.trace.record(now, "idle", cpu=cpu)
            self._debt[cpu] += self._switch_cycles(old, job)
            self._debt_dirty[cpu] = True
            if cpu != event_cpu:
                # The processor learns of its new assignment via an IPI.
                self._debt[event_cpu] += self.costs.ipi_raise + MPIC_ACCESS
                self._debt_dirty[event_cpu] = True
                self._debt[cpu] += self._irq_cycles
                self.ipis += 1
        if self._names_changed:
            self._recompute_stretches()
        self._reschedule_completions(now)

    def _on_tick(self) -> None:
        now = self.sim.now
        self._retime(now)
        released = self.policy.release_due(now)
        promoted = self.policy.promote_due(now)
        for job in released:
            self._rem[job.uid] = float(job.remaining)
        if self.trace.enabled:
            for job in released:
                self.trace.record(now, "release", job=job.name)
            for job in promoted:
                self.trace.record(now, "promote", job=job.name)
        moved = len(released) + len(promoted)
        # The MPIC's fixed-priority scheme sends the timer interrupt to
        # the lowest-id processor; that cpu pays the kernel cycles.
        sched_cpu = 0
        self._debt[sched_cpu] += (
            self._irq_cycles
            + self.costs.scheduler_cycle(moved)
            + self._queue_traffic_cycles(moved)
        )
        self._debt_dirty[sched_cpu] = True
        self.scheduling_cycles += 1
        if self.trace.enabled:
            self.trace.record(now, "tick", cpu=sched_cpu)
        self._reschedule(now, sched_cpu)
        self.sim.schedule_at(now + self.tick, self._on_tick)

    def _on_arrival(self, task: AperiodicTask) -> None:
        now = self.sim.now
        self._retime(now)
        index = self._aper_index.get(task.name, 0)
        self._aper_index[task.name] = index + 1
        job = Job(task, release=now, index=index)
        self._rem[job.uid] = float(job.remaining)
        self.policy.add_aperiodic(job)
        self.aperiodic_releases += 1
        handler_cpu = 0
        self._debt[handler_cpu] += self._arrival_cycles
        self._debt_dirty[handler_cpu] = True
        if self.trace.enabled:
            self.trace.record(now, "release", job=job.name, info="aperiodic")
        self._reschedule(now, handler_cpu)

    def _on_complete(self, cpu: int) -> None:
        now = self.sim.now
        if self._sched[cpu] != now:
            return  # superseded by an earlier event on this cpu
        self._sched[cpu] = None
        armed = self._armed[cpu]
        if armed is None:
            return  # the cpu went idle since this event was scheduled
        job = self.policy.running[cpu]
        if job is None or job.uid != armed[0]:
            return
        if armed[1] > now:
            # The true finish moved later since this event was armed
            # (lazy re-arm, see _reschedule_completions).
            self._sched[cpu] = armed[1]
            self.sim.schedule_at(armed[1], self._complete_cbs[cpu])
            return
        self._retime(now)
        job.remaining = 0
        self._rem.pop(job.uid, None)
        self.policy.job_finished(job, now)
        self._running_names[cpu] = None
        self._names_changed = True
        if self.trace.enabled:
            self.trace.record(now, "finish", job=job.name, cpu=cpu)
        # Completion handling (dequeue, re-arm, self-service) delays
        # whatever runs next on this processor.
        self._debt[cpu] += self._completion_cycles
        self._debt_dirty[cpu] = True
        self._reschedule(now, cpu)


# ------------------------------------------------------------------ calibration
def per_task_wcrt(jobs: Sequence[Job]) -> Dict[str, int]:
    """Worst observed response time per task, from finished jobs."""
    wcrt: Dict[str, int] = {}
    for job in jobs:
        if job.finish_time is None:
            continue
        response = job.finish_time - job.release
        name = job.task.name
        if response > wcrt.get(name, -1):
            wcrt[name] = response
    return wcrt


def _anchor_run(
    fidelity: str,
    n_cpus: int,
    utilization: float,
    scale: int = 1,
    table: TLMCostTable = DEFAULT_COST_TABLE,
    trace: Optional[TraceRecorder] = None,
    metrics=None,
) -> Dict[str, Any]:
    """One run of an anchor cell -> per-task WCRTs (full-scale cycles)
    + verdict, so every rung compares directly with every other."""
    from repro import CLOCK_HZ
    from repro.simulators.ladder import make_simulator, run_metrics
    from repro.workloads.automotive import (
        AUTOMOTIVE_APERIODIC,
        automotive_bindings,
        build_automotive_taskset,
        prepare_taskset,
    )

    taskset = prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )
    arrival = int(1.0 * CLOCK_HZ)
    horizon = arrival + int(17.0 * CLOCK_HZ)
    sim = make_simulator(
        fidelity, taskset, n_cpus, scale=scale, bindings=automotive_bindings(),
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        trace=trace, metrics=metrics, table=table,
    )
    sim.run(horizon)
    return {
        "wcrt": {name: sim.to_full_scale(value)
                 for name, value in per_task_wcrt(sim.finished_jobs).items()},
        "misses": run_metrics(sim, horizon).deadline_misses,
        "finished": len(sim.finished_jobs),
    }


def anchor_prototype_reference(
    n_cpus: int, utilization: float, scale: int = DEFAULT_SCALE
) -> Dict[str, Any]:
    """One prototype run of an anchor cell -> per-task WCRTs + verdict."""
    return _anchor_run("prototype", n_cpus, utilization, scale=scale)


def anchor_tlm_run(
    n_cpus: int,
    utilization: float,
    table: TLMCostTable = DEFAULT_COST_TABLE,
    trace: Optional[TraceRecorder] = None,
    metrics=None,
) -> Dict[str, Any]:
    """One TLM run of an anchor cell -> per-task WCRTs + verdict."""
    return _anchor_run("tlm", n_cpus, utilization, table=table, trace=trace,
                       metrics=metrics)


def _wcrt_deviation(
    reference: Dict[str, int], candidate: Dict[str, int]
) -> List[float]:
    """Relative per-task WCRT deviations over the shared task names."""
    deviations = []
    for name in sorted(reference):
        if name not in candidate or reference[name] <= 0:
            continue
        deviations.append(abs(candidate[name] - reference[name]) / reference[name])
    return deviations


#: Search grids of ``repro-perf calibrate-tlm``.  Bracketing by design:
#: gain 0 disables contention entirely; 1.6 nearly doubles the measured
#: collision costs; skew 0 is a symmetric arbiter, 0.75 close to the
#: strongest tilt the prototype exhibits.
CALIBRATION_GAINS = tuple(x / 10 for x in range(0, 17))
CALIBRATION_BASES = (0.0, 0.005, 0.01, 0.02)
CALIBRATION_SKEWS = (0.0, 0.25, 0.5, 0.75)


def calibrate(
    anchors: Sequence[Tuple[int, float]] = ANCHOR_CELLS,
    scale: int = DEFAULT_SCALE,
    gains: Sequence[float] = CALIBRATION_GAINS,
    bases: Sequence[float] = CALIBRATION_BASES,
    skews: Sequence[float] = CALIBRATION_SKEWS,
) -> TLMCostTable:
    """Fit the per-transaction cost table against prototype anchors.

    Runs the prototype once per anchor cell (the expensive part), then
    grid-searches ``(wait_gain, base_overhead, priority_skew)``
    minimising the mean squared relative per-task WCRT error of the TLM
    rung over parameter points whose schedulability verdicts match the
    prototype on every anchor, and returns the fitted table with
    ``residual`` set to the *maximum* relative deviation observed at
    the chosen point.
    """
    references = {
        cell: anchor_prototype_reference(*cell, scale=scale)
        for cell in anchors
    }

    best: Optional[Tuple[float, TLMCostTable, float]] = None  # err, table, worst
    for gain in gains:
        for base in bases:
            for skew in skews:
                table = TLMCostTable(
                    wait_gain=gain, base_overhead=base, priority_skew=skew
                )
                deviations: List[float] = []
                verdicts_ok = True
                for cell in anchors:
                    result = anchor_tlm_run(*cell, table=table)
                    reference = references[cell]
                    deviations.extend(
                        _wcrt_deviation(reference["wcrt"], result["wcrt"])
                    )
                    if (result["misses"] == 0) != (reference["misses"] == 0):
                        verdicts_ok = False
                if not deviations or not verdicts_ok:
                    continue
                err = sum(d * d for d in deviations) / len(deviations)
                worst = max(deviations)
                if best is None or err < best[0]:
                    best = (err, table, worst)
    if best is None:
        raise RuntimeError("calibration found no parameter point matching "
                           "the prototype verdicts")
    _, table, worst = best
    return TLMCostTable(
        wait_gain=table.wait_gain,
        base_overhead=table.base_overhead,
        priority_skew=table.priority_skew,
        residual=round(worst + 1e-4, 4),  # round up: the bound must hold
    )
