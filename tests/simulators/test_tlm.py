"""Tests for the transaction-level (TLM) middle-fidelity rung.

The accuracy contract: on the Figure-4 anchor cells the TLM backend
must reach the *same schedulability verdict* as the cycle-approximate
prototype, with per-task worst-case response times within the
calibrated tolerance.
"""

import pytest

from repro import TICK
from repro.hw.bus import analytic_txn_wait, analytic_txn_waits
from repro.simulators.tlm import (
    ANCHOR_CELLS,
    DEFAULT_COST_TABLE,
    TLMCostTable,
    TLMSimulator,
    anchor_prototype_reference,
    anchor_tlm_run,
    per_task_wcrt,
)
from repro.trace.recorder import TraceRecorder
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)

#: Accuracy bound for the WCRT cross-checks below.  This is not a
#: magic number: it is the *calibration residual* -- the maximum
#: relative per-task WCRT deviation the fitted cost table showed
#: against the prototype over the anchor cells when
#: ``repro-perf calibrate-tlm`` produced :data:`DEFAULT_COST_TABLE`.
WCRT_TOLERANCE = DEFAULT_COST_TABLE.residual


def _small_tlm(n_cpus=2, utilization=0.40, **kwargs):
    from repro import CLOCK_HZ

    taskset = prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )
    arrival = int(1.0 * CLOCK_HZ)
    sim = TLMSimulator(
        taskset,
        n_cpus,
        tick=TICK,
        bindings=automotive_bindings(),
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        **kwargs,
    )
    horizon = arrival + int(17.0 * CLOCK_HZ)
    return sim, horizon


class TestCostTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            TLMCostTable(wait_gain=-1.0)
        with pytest.raises(ValueError):
            TLMCostTable(base_overhead=-0.1)
        with pytest.raises(ValueError):
            TLMCostTable(priority_skew=1.5)
        with pytest.raises(ValueError):
            TLMCostTable(residual=-0.1)

    def test_default_is_calibrated(self):
        # The shipped table must carry a fitted (finite, sub-100 %)
        # residual, not the unit-cost placeholder of a fresh table.
        assert 0.0 < DEFAULT_COST_TABLE.residual < 1.0

    def test_round_trip(self):
        table = TLMCostTable(wait_gain=0.5, base_overhead=0.01,
                             priority_skew=0.25, residual=0.1)
        assert TLMCostTable(**table.to_dict()) == table


class TestAnalyticWaits:
    SHARES = [0.42, 0.0, 0.17, 0.63]
    LATENCIES = [21.0, 0.0, 9.0, 33.0]

    @pytest.mark.parametrize("gain,skew", [(1.0, 0.0), (0.8, 0.75), (2.0, 0.5)])
    def test_vectorised_matches_scalar(self, gain, skew):
        """The one-pass vector form is the scalar evaluated per master
        (up to last-ulp differences from subtraction vs direct sum)."""
        waits = analytic_txn_waits(self.SHARES, self.LATENCIES,
                                   gain=gain, skew=skew)
        for master in range(len(self.SHARES)):
            expected = analytic_txn_wait(self.SHARES, self.LATENCIES,
                                         master, gain=gain, skew=skew)
            assert waits[master] == pytest.approx(expected, rel=1e-9)

    def test_idle_master_still_waits_on_others(self):
        # An idle master arriving at a loaded bus still queues.
        waits = analytic_txn_waits(self.SHARES, self.LATENCIES)
        assert waits[1] > 0.0

    def test_single_active_master_no_self_wait(self):
        # The lone active master never waits on itself; the idle one
        # would still queue behind it on arrival.
        waits = analytic_txn_waits([0.5, 0.0], [10.0, 0.0])
        assert waits[0] == 0.0
        assert waits[1] > 0.0
        assert analytic_txn_waits([0.5], [10.0]) == [0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_txn_waits([0.5], [10.0], gain=-1.0)
        with pytest.raises(ValueError):
            analytic_txn_waits([0.5], [10.0], skew=2.0)


class TestAnchorAccuracy:
    """The tentpole contract, one anchor cell per processor count."""

    @pytest.mark.parametrize("cell", ANCHOR_CELLS,
                             ids=[f"{n}P-{u:.0%}" for n, u in ANCHOR_CELLS])
    def test_verdict_and_wcrt_match_prototype(self, cell):
        reference = anchor_prototype_reference(*cell)
        result = anchor_tlm_run(*cell)
        # Identical schedulability verdict.
        assert (result["misses"] == 0) == (reference["misses"] == 0)
        # Per-task WCRT within the calibrated tolerance.
        for name, ref_wcrt in reference["wcrt"].items():
            if ref_wcrt <= 0 or name not in result["wcrt"]:
                continue
            deviation = abs(result["wcrt"][name] - ref_wcrt) / ref_wcrt
            assert deviation <= WCRT_TOLERANCE, (
                f"{name}: TLM WCRT {result['wcrt'][name]} vs prototype "
                f"{ref_wcrt} deviates {deviation:.1%} > {WCRT_TOLERANCE:.1%}"
            )


class TestDeterminism:
    def test_bit_for_bit_repeatable(self):
        """Same config => identical schedule: traces, WCRTs, stats."""
        outcomes = []
        for _ in range(2):
            trace = TraceRecorder()
            sim, horizon = _small_tlm(trace=trace)
            sim.run(horizon)
            outcomes.append(
                (
                    tuple(trace.events),
                    per_task_wcrt(sim.finished_jobs),
                    sim.stats(),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_trace_disabled_same_schedule(self):
        """Tracing must be observation only -- disabling it cannot
        change a single finish instant."""
        sim_on, horizon = _small_tlm(trace=TraceRecorder())
        sim_on.run(horizon)
        sim_off, _ = _small_tlm()
        sim_off.run(horizon)
        on = [(j.name, j.release, j.finish_time) for j in sim_on.finished_jobs]
        off = [(j.name, j.release, j.finish_time) for j in sim_off.finished_jobs]
        assert on == off


class TestSimulatorSurface:
    def test_runs_and_finishes_jobs(self):
        sim, horizon = _small_tlm()
        finished = sim.run(horizon)
        assert finished
        assert all(j.finish_time is not None for j in finished)
        stats = sim.stats()
        assert stats["tlm_transactions"] > 0
        assert stats["context_switches"] > 0

    def test_metrics_emission(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim, horizon = _small_tlm(metrics=registry)
        sim.run(horizon)
        snapshot = registry.snapshot()
        assert snapshot["tlm_transactions_total"]["series"][0]["value"] > 0
        assert (
            snapshot["tlm_calibration_residual"]["series"][0]["value"]
            == DEFAULT_COST_TABLE.residual
        )

    def test_tlm_block_trace_vocabulary(self):
        trace = TraceRecorder()
        sim, horizon = _small_tlm(trace=trace)
        sim.run(horizon)
        blocks = [e for e in trace.events if e.kind == "tlm_block"]
        assert blocks
        # Every timed block is annotated with its contention stretch.
        assert all("stretch=" in (e.info or "") for e in blocks)
        # ... which the Perfetto exporter carries onto per-cpu tlm tracks.
        from repro.obs.perfetto import trace_to_chrome

        events = trace_to_chrome(trace)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X" and e.get("cat") == "tlm"]
        assert len(slices) == len(blocks)
        assert all("contention_stretch" in s["args"] for s in slices)
        assert any(e["ph"] == "M" and e["args"]["name"] == "tlm-cpu0"
                   for e in events)

    def test_rejects_bad_tick(self):
        taskset = prepare_taskset(
            build_automotive_taskset(0.40, 2), 2, tick=TICK
        )
        with pytest.raises(ValueError):
            TLMSimulator(taskset, 2, tick=0)
