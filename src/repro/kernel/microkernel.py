"""The dual-priority microkernel on the SoC model (Section 4.2).

One cooperative process per core plays the role of that core's
software stack: it executes the currently assigned job's nominal
cycles through the arbitrated bus, takes interrupts from the MPIC
(timer ticks, peripheral/aperiodic events, IPIs), runs the scheduling
cycle when the system timer lands on it, self-serves the ready queues
on task completion, and performs context switches through shared
memory.  Kernel sections run with interrupts disabled, so the MPIC's
fixed-priority-timeout scheme redistributes interrupts to free cores,
exactly as in the paper ("if a processor is executing the scheduling
cycle, or it is executing a context switch, it will not be burdened by
the aperiodic task release").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, TaskSet
from repro.hw.microblaze import DEFAULT_PROFILE, ExecutionProfile, SegmentResult
from repro.hw.soc import SoC
from repro.kernel.context import BURST_WORDS, ContextSwitchEngine, TaskContext
from repro.kernel.costs import KernelCosts
from repro.sim.events import Interrupt
from repro.trace.recorder import TraceRecorder

#: Sync-engine lock id protecting the kernel task tables.
KERNEL_LOCK = 0


@dataclass(frozen=True)
class TaskBinding:
    """Per-task execution characterisation for the hardware model.

    ``criticality`` and ``retry_budget`` feed the fault-recovery
    machinery (docs/FAULTS.md): higher criticality survives graceful
    degradation longer, and ``retry_budget`` bounds per-instance
    re-execution after a detected crash fault.
    """

    profile: ExecutionProfile = DEFAULT_PROFILE
    stack_words: int = 256
    criticality: int = 1
    retry_budget: int = 1

    def __post_init__(self):
        if self.stack_words < 0:
            raise ValueError("stack_words must be non-negative")
        if self.criticality < 0:
            raise ValueError("criticality must be non-negative")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")


#: The binding of a task without one (frozen, so one instance serves all).
_DEFAULT_BINDING = TaskBinding()


@dataclass(frozen=True)
class RecoveryConfig:
    """Fault-recovery policy of the microkernel (docs/FAULTS.md).

    The deadline-miss watchdog is always armed (it is pure
    observability); this config only governs the *actions* taken when
    faults are detected.  ``enabled`` turns on bounded re-execution of
    crashed jobs; ``degradation_threshold`` (> 0) arms graceful
    degradation: once that many kernel-level faults have been
    consumed, periodic tasks with ``criticality <
    shed_below_criticality`` are shed at release time until the end of
    the run.
    """

    enabled: bool = False
    degradation_threshold: int = 0
    shed_below_criticality: int = 1

    def __post_init__(self):
        if self.degradation_threshold < 0:
            raise ValueError("degradation_threshold must be non-negative")
        if self.shed_below_criticality < 0:
            raise ValueError("shed_below_criticality must be non-negative")


class DualPriorityMicrokernel:
    """MPDP microkernel bound to a :class:`~repro.hw.soc.SoC`."""

    def __init__(
        self,
        soc: SoC,
        taskset: TaskSet,
        bindings: Optional[Dict[str, TaskBinding]] = None,
        costs: Optional[KernelCosts] = None,
        trace: Optional[TraceRecorder] = None,
        metrics=None,
        recovery: Optional[RecoveryConfig] = None,
    ):
        self.soc = soc
        self.sim = soc.sim
        self.taskset = taskset
        self.n_cpus = soc.config.n_cpus
        self.policy = MPDPScheduler(taskset, self.n_cpus)
        self.bindings = dict(bindings or {})
        self.costs = costs or KernelCosts()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

        self.assigned: List[Optional[Job]] = [None] * self.n_cpus
        self._current: List[Optional[Job]] = [None] * self.n_cpus
        self._state: List[str] = ["boot"] * self.n_cpus
        self._procs: List[Optional[object]] = [None] * self.n_cpus
        self._context_engines = [
            ContextSwitchEngine(
                core,
                primitive_overhead=self.costs.context_primitive,
                regfile_words=self.costs.regfile_words,
            )
            for core in soc.cores
        ]
        self._aper_index: Dict[str, int] = {}
        # Queued watchdog entries, ``(instant, callback)`` per job.
        self._watchdogs: Dict[Job, Tuple[int, Callable[[], None]]] = {}

        # Statistics.
        self.context_switches = 0
        self.scheduling_cycles = 0
        self.aperiodic_releases = 0
        self.irqs_serviced = 0
        self.stale_completions = 0
        self._started = False

        # Fault-recovery state (docs/FAULTS.md).  ``_faults_armed``
        # stays False until an injection lands, so fault-free runs pay
        # one boolean check per dispatch/completion and nothing else.
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        self.deadline_misses = 0
        self.faults_injected = 0
        self.task_retries = 0
        self.crashes_unrecovered = 0
        self.jobs_shed = 0
        self.degraded = False
        self._faults_armed = False
        self._pending_overruns: Dict[str, List[int]] = {}
        self._pending_crashes: Dict[str, int] = {}
        self._fault_count = 0
        self._shed_tasks: Dict[str, bool] = {}

        # Observability (optional MetricsRegistry).  Instrument
        # handles are resolved once here so instrumented runs pay no
        # registry lookup per event, and uninstrumented runs pay one
        # ``is None`` check per observation point.
        self.metrics = metrics
        self._m_sched = self._m_switches = self._m_irqs = None
        self._m_prq_depth = self._m_apq_depth = self._m_local_depth = None
        if metrics is not None:
            from repro.obs.metrics import DEFAULT_DEPTH_BUCKETS

            self._m_sched = metrics.histogram(
                "sched_cycle_cycles",
                help="latency of one scheduling cycle (lock request to done)",
            )
            self._m_switches = metrics.counter(
                "context_switches_total", help="context switches performed")
            self._m_irqs = metrics
            self._m_prq_depth = metrics.histogram(
                "queue_depth", buckets=DEFAULT_DEPTH_BUCKETS,
                labels={"queue": "periodic_ready"},
                help="ready-queue depth sampled at each scheduling cycle",
            )
            self._m_apq_depth = metrics.histogram(
                "queue_depth", buckets=DEFAULT_DEPTH_BUCKETS,
                labels={"queue": "aperiodic_ready"},
            )
            self._m_local_depth = [
                metrics.histogram(
                    "queue_depth", buckets=DEFAULT_DEPTH_BUCKETS,
                    labels={"queue": "local", "cpu": cpu},
                )
                for cpu in range(self.n_cpus)
            ]

    # ----------------------------------------------------------------- control
    def start(self) -> None:
        """Boot: wire interrupt hooks, spawn core loops, start the timer."""
        if self._started:
            raise RuntimeError("kernel already started")
        self._started = True
        for cpu in range(self.n_cpus):
            self._wire_interrupt_hook(cpu)
            self._procs[cpu] = self.sim.process(
                self._cpu_loop(cpu), name=f"cpu{cpu}-loop"
            )
        self.soc.timer.start(first_tick=self.sim.now)

    def run(self, until: int) -> None:
        """Start (if needed) and simulate up to ``until`` cycles."""
        if not self._started:
            self.start()
        self.sim.run(until=until)

    @property
    def finished_jobs(self) -> List[Job]:
        return self.policy.finished_jobs

    # ----------------------------------------------------------- interrupt glue
    def _wire_interrupt_hook(self, cpu: int) -> None:
        core = self.soc.cores[cpu]
        original = core.on_interrupt_line

        def hook(asserted: bool) -> None:
            original(asserted)
            if not asserted:
                return
            if self._state[cpu] == "user" and core.interrupts_enabled:
                proc = self._procs[cpu]
                if proc is not None and proc.is_alive:
                    proc.interrupt(
                        "irq",
                        guard=lambda: self._state[cpu] == "user"
                        and core.interrupts_enabled,
                    )

        self.soc.intc.connect_cpu(cpu, hook)

    # ------------------------------------------------------------- the cpu loop
    def _cpu_loop(self, cpu: int):
        core = self.soc.cores[cpu]
        while True:
            if self.assigned[cpu] is not self._current[cpu]:
                self._enter_kernel(cpu)
                yield from self._switch_to_assigned(cpu)
                self._leave_kernel(cpu)
                continue

            job = self._current[cpu]
            if job is None:
                self._state[cpu] = "idle"
                if self.trace.enabled:
                    self.trace.record(self.sim.now, "idle", cpu=cpu)
                yield core.irq_event()
                self._enter_kernel(cpu)
                yield from self._service_interrupts(cpu)
                yield from self._switch_to_assigned(cpu)
                self._leave_kernel(cpu)
                continue

            # Execute the current job, interruptibly.
            self._state[cpu] = "user"
            binding = self._binding_of(job)
            if self._faults_armed:
                self._consume_overrun(cpu, job)
            segment = SegmentResult()
            try:
                yield from core.execute(job.remaining, binding.profile, segment)
                job.remaining = 0
                self._enter_kernel(cpu)
                yield from self._complete_or_recover(cpu, job)
                yield from self._switch_to_assigned(cpu)
                self._leave_kernel(cpu)
            except Interrupt:
                job.remaining -= segment.nominal_done
                self._enter_kernel(cpu)
                if job.remaining <= 0:
                    # Finished in the very cycle the interrupt landed.
                    job.remaining = 0
                    yield from self._complete_or_recover(cpu, job)
                yield from self._service_interrupts(cpu)
                yield from self._switch_to_assigned(cpu)
                self._leave_kernel(cpu)

    def _enter_kernel(self, cpu: int) -> None:
        self._state[cpu] = "kernel"
        self.soc.cores[cpu].disable_interrupts()

    def _leave_kernel(self, cpu: int) -> None:
        self.soc.cores[cpu].enable_interrupts()

    # --------------------------------------------------------- interrupt service
    def _service_interrupts(self, cpu: int):
        """Drain and handle every interrupt pending for this cpu."""
        core = self.soc.cores[cpu]
        intc = self.soc.intc
        while intc.pending_for(cpu):
            # Acknowledge: MPIC register read over the OPB.
            yield from core.bus.transfer(cpu, intc.REGISTERS, 1)
            if not intc.pending_for(cpu):
                # A stalled read outlived the ack timeout and the MPIC
                # re-routed the offer: a spurious vector, no handler
                # and no EOI.
                break
            source, payload = intc.acknowledge(cpu)
            yield from self.sim.sleep(self.costs.irq_entry)
            self.irqs_serviced += 1
            kind = (payload or {}).get("kind", source.name)
            if self._m_irqs is not None:
                self._m_irqs.counter(
                    "kernel_irqs_total", labels={"kind": str(kind)},
                    help="interrupts serviced by the kernel, by kind",
                ).inc()
            if self.trace.enabled:
                self.trace.record(self.sim.now, "irq", cpu=cpu, info=str(kind))

            if kind == "timer":
                yield from self._scheduling_cycle(cpu)
            elif kind == "aperiodic":
                yield from self._aperiodic_release(cpu, payload)
            elif kind == "ipi":
                pass  # reconciliation below picks up the new assignment
            else:
                pass  # unknown peripherals are acknowledged and dropped

            # End-of-interrupt: MPIC register write over the OPB.
            yield from core.bus.transfer(cpu, intc.REGISTERS, 1)
            intc.complete(cpu)
            yield from self.sim.sleep(self.costs.irq_exit)

    # -------------------------------------------------------------- kernel paths
    def _lock_kernel(self, cpu: int):
        """Generator: take the kernel lock.

        A free lock, in a process that may play in place (see
        :meth:`repro.sim.engine.Simulator.sleep`), takes the id its grant
        takes and runs the push-only entries due at ``now`` first; with
        nothing else then due it is taken in place, else the grant is
        queued under that id."""
        engine = self.soc.sync_engine
        sim = self.sim
        if (engine.owner(KERNEL_LOCK) is None and sim._inplace
                and not sim._stopped):
            sim._eid += 1
            eid = sim._eid
            if sim._head_past_push_only() > sim.now:
                engine.try_acquire(KERNEL_LOCK, cpu)
                return
            yield sim._push_as(eid, engine.acquire, KERNEL_LOCK, cpu)
            return
        yield engine.acquire(KERNEL_LOCK, cpu)

    def _unlock_kernel(self, cpu: int) -> None:
        self.soc.sync_engine.release(KERNEL_LOCK, cpu)

    def _queue_traffic(self, cpu: int, jobs_moved: int):
        """Shared-memory task-table traffic for queue manipulation."""
        words = self.costs.queue_op_words * max(1, jobs_moved)
        core = self.soc.cores[cpu]
        yield from core.bus.stream(cpu, core.ddr, words, BURST_WORDS)

    def _scheduling_cycle(self, cpu: int):
        """The timer-triggered scheduling cycle, run by one processor."""
        entered = self.sim.now
        yield from self._lock_kernel(cpu)
        now = self.sim.now
        released = self.policy.release_due(now)
        promoted = self.policy.promote_due(now)
        moved = len(released) + len(promoted)
        if self.trace.enabled:
            for job in released:
                self.trace.record(now, "release", job=job.name)
            for job in promoted:
                self.trace.record(now, "promote", job=job.name)
        if self._shed_tasks:
            released = self._shed_released(released, now)
        for job in released:
            self._arm_watchdog(job)
        yield from self.sim.sleep(self.costs.scheduler_cycle(moved))
        yield from self._queue_traffic(cpu, moved)

        allocation = self.policy.reschedule(self.sim.now)
        self.assigned = list(allocation.assignment)
        self.scheduling_cycles += 1
        if self.trace.enabled:
            self.trace.record(self.sim.now, "tick", cpu=cpu)
        yield from self._notify_switches(cpu, allocation.switches)
        self._unlock_kernel(cpu)
        if self._m_sched is not None:
            self._m_sched.observe(self.sim.now - entered)
            self._observe_queue_depths()

    def _observe_queue_depths(self) -> None:
        """Sample ready-queue depths (global bands + per-cpu local)."""
        self._m_prq_depth.observe(len(self.policy.periodic_ready))
        self._m_apq_depth.observe(len(self.policy.aperiodic_ready))
        for cpu in range(self.n_cpus):
            self._m_local_depth[cpu].observe(len(self.policy.local[cpu]))

    def _aperiodic_release(self, cpu: int, payload: dict):
        """Release the aperiodic task named in the peripheral payload."""
        task_name = (payload or {}).get("task")
        if task_name is None:
            return
        task = self.taskset.by_name(task_name)
        if not isinstance(task, AperiodicTask):
            raise TypeError(f"{task_name} is not an aperiodic task")
        index = self._aper_index.get(task_name, 0)
        self._aper_index[task_name] = index + 1
        job = Job(task, release=self.sim.now, index=index)

        yield from self._lock_kernel(cpu)
        yield from self.sim.sleep(self.costs.aperiodic_release)
        self.policy.add_aperiodic(job)
        self.aperiodic_releases += 1
        if self.trace.enabled:
            self.trace.record(self.sim.now, "release", job=job.name,
                              info="aperiodic")
        yield from self._queue_traffic(cpu, 1)

        allocation = self.policy.reschedule(self.sim.now)
        self.assigned = list(allocation.assignment)
        yield from self._notify_switches(cpu, allocation.switches)
        self._unlock_kernel(cpu)

    def _on_completion(self, cpu: int, job: Job):
        """Task finished: re-arm, self-serve the queues, notify peers."""
        yield from self._lock_kernel(cpu)
        yield from self.sim.sleep(self.costs.completion)
        if job.finish_time is None:
            self.policy.job_finished(job, self.sim.now)
            if self.trace.enabled:
                self.trace.record(self.sim.now, "finish", job=job.name, cpu=cpu)
            self._withdraw_watchdog(job)
        else:
            # KD-3 (docs/FAULTS.md): this core loaded the job's context
            # while another core still executed it, and that core
            # finished it first.
            self.stale_completions += 1
        self._current[cpu] = None
        yield from self._queue_traffic(cpu, 1)

        allocation = self.policy.reschedule(self.sim.now)
        self.assigned = list(allocation.assignment)
        yield from self._notify_switches(cpu, allocation.switches)
        self._unlock_kernel(cpu)

    # ---------------------------------------------------------- fault recovery
    # Injection entry points (called by repro.faults.injector; the
    # kernel never imports repro.faults).  Faults are *armed* here and
    # consumed at well-defined points of the cpu loop, which keeps the
    # loop's structure -- and therefore fault-free timing -- unchanged.

    def inject_overrun(self, task_name: str, extra: int) -> None:
        """Arm a WCET-overrun: the next executed segment of this task
        runs ``extra`` cycles beyond its budget."""
        if extra <= 0:
            raise ValueError("overrun extra cycles must be positive")
        self.taskset.by_name(task_name)
        self._pending_overruns.setdefault(task_name, []).append(extra)
        self._faults_armed = True

    def inject_crash(self, task_name: str) -> None:
        """Arm a crash fault: the next completion of this task is
        detected as corrupted (silent-data-corruption model)."""
        self.taskset.by_name(task_name)
        self._pending_crashes[task_name] = (
            self._pending_crashes.get(task_name, 0) + 1
        )
        self._faults_armed = True

    def running_task_on(self, cpu: int) -> Optional[str]:
        """Name of the task currently executing on ``cpu`` (or None).

        Used by the injector to map hardware-level upsets (register
        bit-flips) onto the software-level job they corrupt.
        """
        job = self._current[cpu]
        return job.task.name if job is not None else None

    def _consume_overrun(self, cpu: int, job: Job) -> None:
        """Apply one armed overrun to the job about to execute."""
        queue = self._pending_overruns.get(job.task.name)
        if not queue:
            return
        extra = queue.pop(0)
        job.remaining += extra
        self._record_fault(cpu, job, f"overrun+{extra}")

    def _complete_or_recover(self, cpu: int, job: Job):
        """Completion gate: consume an armed crash fault, else finish.

        A stale completion (KD-3: another core already finished the
        job) consumes no crash; it stays armed for the task's next real
        completion."""
        if (self._faults_armed and job.finish_time is None
                and self._pending_crashes.get(job.task.name)):
            yield from self._recover_crash(cpu, job)
            return
        yield from self._on_completion(cpu, job)

    def _recover_crash(self, cpu: int, job: Job):
        """A crash fault fires at completion: retry within budget, or
        let the instance complete with invalid output."""
        name = job.task.name
        remaining = self._pending_crashes[name] - 1
        if remaining:
            self._pending_crashes[name] = remaining
        else:
            del self._pending_crashes[name]
        self._record_fault(cpu, job, "crash")

        budget = self._binding_of(job).retry_budget
        if self.recovery.enabled and job.retries < budget:
            # Bounded re-execution: restart the instance from scratch.
            # The job stays current/assigned on this cpu; the loop
            # re-enters core.execute with a fresh budget.
            job.retries += 1
            self.task_retries += 1
            job.remaining = getattr(job.task, "acet", None) or job.task.wcet
            yield from self.sim.sleep(self.costs.completion)
            self.trace.record(
                self.sim.now, "retry", job=job.name, cpu=cpu,
                info=f"attempt={job.retries}",
            )
            if self.metrics is not None:
                self.metrics.counter(
                    "task_retries_total", labels={"task": name},
                    help="crashed jobs re-executed by the recovery policy",
                ).inc()
            return
        # Budget exhausted (or recovery disabled): the instance
        # completes, but its output is corrupt -- the watchdog counts
        # it as a deadline miss.
        job.invalid = True
        self.crashes_unrecovered += 1
        yield from self._on_completion(cpu, job)

    def _record_fault(self, cpu: int, job: Job, info: str) -> None:
        """Count + trace one consumed kernel-level fault, and trip
        graceful degradation at the configured threshold."""
        self.faults_injected += 1
        self._fault_count += 1
        self.trace.record(self.sim.now, "fault", job=job.name, cpu=cpu, info=info)
        if self.metrics is not None:
            self.metrics.counter(
                "kernel_faults_total", labels={"task": job.task.name},
                help="kernel-level faults consumed (crashes + overruns)",
            ).inc()
        if (
            self.recovery.enabled
            and not self.degraded
            and self.recovery.degradation_threshold > 0
            and self._fault_count >= self.recovery.degradation_threshold
        ):
            self._enter_degraded_mode()

    def _enter_degraded_mode(self) -> None:
        """Sustained faults: shed low-criticality periodic tasks."""
        self.degraded = True
        floor = self.recovery.shed_below_criticality
        for task in self.taskset.periodic:
            if self._binding_of_name(task.name).criticality < floor:
                self._shed_tasks[task.name] = True
        self.trace.record(
            self.sim.now, "degrade",
            info=",".join(sorted(self._shed_tasks)) or "none",
        )

    def _shed_released(self, released: List[Job], now: int) -> List[Job]:
        """Drop just-released jobs of shed tasks (degraded mode only).

        A shed job is completed instantly at zero cost: marked
        ``shed`` and run through ``job_finished``, which takes it out
        of the PRQ and parks its next instance in the WPQ (un-shedding
        future configs stays possible).  In-flight jobs of shed tasks
        are never aborted -- shedding applies to releases after the
        degradation point.
        """
        kept: List[Job] = []
        for job in released:
            if job.task.name in self._shed_tasks:
                job.remaining = 0
                job.shed = True
                self.policy.job_finished(job, now)
                self.jobs_shed += 1
                self.trace.record(now, "shed", job=job.name)
            else:
                kept.append(job)
        return kept

    # Watchdog: a deadline-miss detector armed at every periodic
    # release.  It is pure observability -- the callback only reads job
    # state and bumps counters -- so it is always on and cannot perturb
    # the schedule.

    def _arm_watchdog(self, job: Job) -> None:
        deadline = job.absolute_deadline
        if deadline is None:
            return
        # +1: a completion event in the deadline cycle itself must be
        # seen as a meet (finish_time == deadline is on time).
        if deadline + 1 < self.sim.now:
            # Released after its deadline (a late scheduling cycle, e.g.
            # a glitched timer): a miss already.
            self._watchdog_check(job)
            return
        entry = (deadline + 1, lambda j=job: self._watchdog_check(j))
        self._watchdogs[job] = entry
        self.sim.schedule_at(*entry)

    def _withdraw_watchdog(self, job: Job) -> None:
        """A valid completion by the deadline: the job's watchdog would
        find no miss, so its entry leaves the queue instead of running
        as a no-op (a late or invalid job keeps it)."""
        entry = self._watchdogs.get(job)
        if (entry is not None and not job.invalid
                and job.finish_time <= job.absolute_deadline):
            del self._watchdogs[job]
            self.sim.withdraw(*entry)

    def _watchdog_check(self, job: Job) -> None:
        self._watchdogs.pop(job, None)
        if job.shed:
            return
        deadline = job.absolute_deadline
        missed = (
            job.invalid
            or job.finish_time is None
            or job.finish_time > deadline
        )
        if not missed:
            return
        self.deadline_misses += 1
        self.trace.record(
            self.sim.now, "deadline_miss", job=job.name, cpu=job.cpu,
            info="invalid" if job.invalid else "late",
        )
        if self.metrics is not None:
            cpu = job.cpu if job.cpu is not None else getattr(job.task, "cpu", -1)
            self.metrics.counter(
                "deadline_misses_total",
                labels={"task": job.task.name, "cpu": cpu},
                help="periodic jobs without a valid completion by their deadline",
            ).inc()

    def _binding_of_name(self, name: str) -> TaskBinding:
        return self.bindings.get(name, _DEFAULT_BINDING)

    def _notify_switches(self, scheduler_cpu: int, switches: List[int]):
        """IPI every processor whose assignment changed (except self)."""
        core = self.soc.cores[scheduler_cpu]
        for target in switches:
            if target == scheduler_cpu:
                continue
            yield from self.sim.sleep(self.costs.ipi_raise)
            yield from core.bus.transfer(scheduler_cpu, self.soc.intc.REGISTERS, 1)
            self.soc.intc.send_ipi(
                scheduler_cpu, target, payload={"kind": "ipi"}
            )

    # ------------------------------------------------------------ context switch
    def _switch_to_assigned(self, cpu: int):
        """Bring the cpu's loaded context in line with the assignment."""
        new = self.assigned[cpu]
        old = self._current[cpu]
        if new is old:
            return
        engine = self._context_engines[cpu]
        old_ctx: Optional[TaskContext] = None
        if old is not None and old.remaining > 0:
            old_ctx = engine.context_of(
                old.task.name, self._binding_of(old).stack_words
            )
            if self.trace.enabled:
                self.trace.record(self.sim.now, "preempt", job=old.name,
                                  cpu=cpu)
        new_ctx: Optional[TaskContext] = None
        if new is not None:
            new_ctx = engine.context_of(
                new.task.name, self._binding_of(new).stack_words
            )
        yield from engine.switch(old_ctx, new_ctx)
        self._current[cpu] = new
        if new is not None:
            self.context_switches += 1
            if self._m_switches is not None:
                self._m_switches.inc()
            if self.trace.enabled:
                self.trace.record(self.sim.now, "switch", job=new.name, cpu=cpu)
                self.trace.record(self.sim.now, "dispatch", job=new.name,
                                  cpu=cpu)

    # ----------------------------------------------------------------- utilities
    def _binding_of(self, job: Job) -> TaskBinding:
        return self.bindings.get(job.task.name, _DEFAULT_BINDING)

    def stats(self) -> dict:
        """Kernel counters (used by experiments and tests)."""
        return {
            "context_switches": self.context_switches,
            "scheduling_cycles": self.scheduling_cycles,
            "aperiodic_releases": self.aperiodic_releases,
            "irqs_serviced": self.irqs_serviced,
            "stale_completions": self.stale_completions,
            "bus_busy_cycles": self.soc.bus.stats.busy_cycles,
            "bus_utilization": self.soc.bus.stats.utilization(max(1, self.sim.now)),
            "mpic_delivered": self.soc.intc.delivered,
            "mpic_timeouts": self.soc.intc.timeouts,
            "ipis": self.soc.intc.ipis_sent,
            "deadline_misses": self.deadline_misses,
            "faults_injected": self.faults_injected,
            "task_retries": self.task_retries,
            "crashes_unrecovered": self.crashes_unrecovered,
            "jobs_shed": self.jobs_shed,
            "degraded": self.degraded,
        }
