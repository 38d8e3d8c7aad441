"""Trace concurrency pass: lockset races, lock-order deadlocks, and the
event emission of the sync engine / ISA executor feeding the checker."""

import pytest

from repro.hw.asmlib import link
from repro.hw.isa import ISAExecutor
from repro.hw.soc import SoC, SoCConfig
from repro.hw.sync_engine import SynchronizationEngine
from repro.lint.concurrency import lint_trace
from repro.sim.engine import Simulator
from repro.trace.recorder import TraceRecorder


def trace_of(*events):
    trace = TraceRecorder()
    for time, kind, cpu, info in events:
        trace.record(time, kind, cpu=cpu, info=info)
    return trace


# ------------------------------------------------------------------ races
class TestRaceDetection:
    def test_race001_unguarded_two_cpu_write(self):
        report = lint_trace(
            trace_of(
                (10, "access", 0, "addr=0x40010000 op=write"),
                (20, "access", 1, "addr=0x40010000 op=write"),
            )
        )
        assert report.by_rule("RACE001")

    def test_race001_write_read_pair(self):
        report = lint_trace(
            trace_of(
                (10, "access", 0, "addr=0x40010000 op=write"),
                (20, "access", 1, "addr=0x40010000 op=read"),
            )
        )
        assert report.by_rule("RACE001")

    def test_read_only_sharing_is_not_a_race(self):
        report = lint_trace(
            trace_of(
                (10, "access", 0, "addr=0x40010000 op=read"),
                (20, "access", 1, "addr=0x40010000 op=read"),
            )
        )
        assert report.clean

    def test_single_cpu_writes_are_not_a_race(self):
        report = lint_trace(
            trace_of(
                (10, "access", 0, "addr=0x40010000 op=write"),
                (20, "access", 0, "addr=0x40010000 op=write"),
            )
        )
        assert report.clean

    def test_common_lock_suppresses_race(self):
        report = lint_trace(
            trace_of(
                (0, "acquire", 0, "lock=2"),
                (1, "access", 0, "addr=0x40010000 op=write"),
                (2, "unlock", 0, "lock=2"),
                (10, "acquire", 1, "lock=2"),
                (11, "access", 1, "addr=0x40010000 op=write"),
                (12, "unlock", 1, "lock=2"),
            )
        )
        assert report.clean

    def test_disjoint_locks_still_race(self):
        report = lint_trace(
            trace_of(
                (0, "acquire", 0, "lock=1"),
                (1, "access", 0, "addr=0x40010000 op=write"),
                (2, "unlock", 0, "lock=1"),
                (10, "acquire", 1, "lock=2"),
                (11, "access", 1, "addr=0x40010000 op=write"),
                (12, "unlock", 1, "lock=2"),
            )
        )
        assert report.by_rule("RACE001")

    def test_race002_lock_leaked_at_end(self):
        report = lint_trace(trace_of((0, "acquire", 0, "lock=3")))
        leak = report.by_rule("RACE002")
        assert leak and report.ok  # warning only

    def test_race003_release_without_acquire(self):
        report = lint_trace(trace_of((0, "unlock", 0, "lock=3")))
        assert report.by_rule("RACE003")

    def test_race003_reacquire_held_lock(self):
        report = lint_trace(
            trace_of((0, "acquire", 0, "lock=3"), (1, "acquire", 0, "lock=3"))
        )
        assert report.by_rule("RACE003")

    def test_race003_malformed_payload(self):
        report = lint_trace(trace_of((0, "access", 0, "op=write")))
        assert report.by_rule("RACE003")


# -------------------------------------------------------------- deadlocks
class TestDeadlockDetection:
    def test_dead001_ab_ba_ordering(self):
        report = lint_trace(
            trace_of(
                (0, "acquire", 0, "lock=0"),
                (1, "acquire", 0, "lock=1"),
                (2, "unlock", 0, "lock=1"),
                (3, "unlock", 0, "lock=0"),
                (4, "acquire", 1, "lock=1"),
                (5, "acquire", 1, "lock=0"),
                (6, "unlock", 1, "lock=0"),
                (7, "unlock", 1, "lock=1"),
            )
        )
        cycle = report.by_rule("DEAD001")
        assert len(cycle) == 1
        assert "cpu 0" in cycle[0].message and "cpu 1" in cycle[0].message

    def test_consistent_order_is_clean(self):
        report = lint_trace(
            trace_of(
                (0, "acquire", 0, "lock=0"),
                (1, "acquire", 0, "lock=1"),
                (2, "unlock", 0, "lock=1"),
                (3, "unlock", 0, "lock=0"),
                (4, "acquire", 1, "lock=0"),
                (5, "acquire", 1, "lock=1"),
                (6, "unlock", 1, "lock=1"),
                (7, "unlock", 1, "lock=0"),
            )
        )
        assert report.clean

    def test_dead002_stuck_barrier(self):
        report = lint_trace(trace_of((0, "barrier", 0, "barrier=1 width=2")))
        assert report.by_rule("DEAD002")

    def test_completed_barrier_is_clean(self):
        report = lint_trace(
            trace_of(
                (0, "barrier", 0, "barrier=1 width=2"),
                (5, "barrier", 1, "barrier=1 width=2"),
            )
        )
        assert report.clean

    def test_schedule_events_are_ignored(self):
        trace = TraceRecorder()
        trace.record(0, "release", job="wheel-speed#0")  # job release, not a lock
        trace.record(0, "dispatch", cpu=0, job="wheel-speed#0")
        trace.record(10, "finish", cpu=0, job="wheel-speed#0")
        assert lint_trace(trace).clean

    def test_legacy_release_with_lock_payload_still_accepted(self):
        """Old traces spelled lock releases ``release lock=N``."""
        report = lint_trace(
            trace_of(
                (0, "acquire", 0, "lock=2"),
                (1, "access", 0, "addr=0x40010000 op=write"),
                (2, "release", 0, "lock=2"),
                (10, "acquire", 1, "lock=2"),
                (11, "access", 1, "addr=0x40010000 op=write"),
                (12, "release", 1, "lock=2"),
            )
        )
        assert report.clean


# ---------------------------------------------------- release/unlock parity
#: Scenarios whose verdict must not depend on the lock-release spelling.
#: Each is (name, events) with ``release`` as a placeholder kind that the
#: parametrised test rewrites to either spelling.
_RELEASE_SCENARIOS = [
    (
        "guarded_clean",
        [
            (0, "acquire", 0, "lock=2"),
            (1, "access", 0, "addr=0x40010000 op=write"),
            (2, "release", 0, "lock=2"),
            (10, "acquire", 1, "lock=2"),
            (11, "access", 1, "addr=0x40010000 op=write"),
            (12, "release", 1, "lock=2"),
        ],
    ),
    (
        "disjoint_locks_race",
        [
            (0, "acquire", 0, "lock=1"),
            (1, "access", 0, "addr=0x40010000 op=write"),
            (2, "release", 0, "lock=1"),
            (10, "acquire", 1, "lock=2"),
            (11, "access", 1, "addr=0x40010000 op=write"),
            (12, "release", 1, "lock=2"),
        ],
    ),
    (
        "lock_order_deadlock",
        [
            (0, "acquire", 0, "lock=0"),
            (1, "acquire", 0, "lock=1"),
            (2, "release", 0, "lock=1"),
            (3, "release", 0, "lock=0"),
            (4, "acquire", 1, "lock=1"),
            (5, "acquire", 1, "lock=0"),
            (6, "release", 1, "lock=0"),
            (7, "release", 1, "lock=1"),
        ],
    ),
    (
        "release_without_acquire",
        [(0, "release", 0, "lock=3")],
    ),
]


class TestReleaseUnlockEquivalence:
    """Legacy ``release lock=N`` and new ``unlock lock=N`` are synonyms:
    both accepted, identical verdicts, rule for rule."""

    @staticmethod
    def _spelled(events, spelling):
        return trace_of(
            *(
                (time, spelling if kind == "release" else kind, cpu, info)
                for time, kind, cpu, info in events
            )
        )

    @pytest.mark.parametrize(
        "name,events", _RELEASE_SCENARIOS, ids=[n for n, _ in _RELEASE_SCENARIOS]
    )
    def test_identical_verdicts(self, name, events):
        legacy = lint_trace(self._spelled(events, "release"))
        modern = lint_trace(self._spelled(events, "unlock"))
        assert legacy.rules() == modern.rules()
        assert legacy.ok == modern.ok and legacy.clean == modern.clean
        assert len(legacy) == len(modern)

    def test_expected_verdicts_per_scenario(self):
        verdicts = {
            name: lint_trace(self._spelled(events, "unlock")).rules()
            for name, events in _RELEASE_SCENARIOS
        }
        assert verdicts["guarded_clean"] == []
        assert "RACE001" in verdicts["disjoint_locks_race"]
        assert "DEAD001" in verdicts["lock_order_deadlock"]
        assert "RACE003" in verdicts["release_without_acquire"]

    def test_payload_less_release_is_scheduler_event(self):
        """Bare ``release`` (no lock=) is a job release: ignored by the
        checker under the legacy spelling, never treated as an unlock."""
        trace = TraceRecorder()
        trace.record(0, "release", job="wheel-speed#0")
        assert lint_trace(trace).clean


# ------------------------------------------------------------- integration
class TestEmissionIntegration:
    def test_sync_engine_emits_checkable_deadlock_trace(self):
        sim = Simulator()
        trace = TraceRecorder()
        engine = SynchronizationEngine(sim, trace=trace)
        # cpu 0 nests 0 -> 1, cpu 1 nests 1 -> 0: classic order inversion.
        engine.acquire(0, cpu=0)
        engine.acquire(1, cpu=0)
        engine.release(1, cpu=0)
        engine.release(0, cpu=0)
        engine.acquire(1, cpu=1)
        engine.acquire(0, cpu=1)
        engine.release(0, cpu=1)
        engine.release(1, cpu=1)
        report = lint_trace(trace)
        assert report.by_rule("DEAD001")

    def test_sync_engine_handover_records_new_owner(self):
        sim = Simulator()
        trace = TraceRecorder()
        engine = SynchronizationEngine(sim, trace=trace)
        engine.acquire(0, cpu=0)
        engine.acquire(0, cpu=1)  # queued behind cpu 0
        engine.release(0, cpu=0)  # FIFO handover to cpu 1
        engine.release(0, cpu=1)
        kinds = [(e.kind, e.cpu) for e in trace]
        assert kinds == [
            ("acquire", 0),
            ("unlock", 0),
            ("acquire", 1),
            ("unlock", 1),
        ]
        assert lint_trace(trace).clean

    def test_sync_engine_barrier_events(self):
        sim = Simulator()
        trace = TraceRecorder()
        engine = SynchronizationEngine(sim, trace=trace)
        engine.configure_barrier(0, width=2)
        engine.barrier_wait(0, cpu=0)
        engine.barrier_wait(0, cpu=1)
        assert lint_trace(trace).clean

    def test_isa_executors_expose_real_race(self):
        """Two cores storing to the same DDR word, unguarded, end to end."""
        source = """
            addi r3, r0, 1
            swi  r3, r0, 0x40010000
            halt
        """
        soc = SoC(SoCConfig(n_cpus=2))
        trace = TraceRecorder()
        for cpu in range(2):
            program = link(source, routines=())
            executor = ISAExecutor(soc.core(cpu), program, trace=trace)
            soc.sim.process(executor.run())
        soc.sim.run()
        report = lint_trace(trace)
        assert report.by_rule("RACE001")
