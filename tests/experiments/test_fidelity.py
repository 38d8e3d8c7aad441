"""Fidelity-ladder threading: selector, cache keys, sweep columns.

Guards the invariant that runs of *different* simulation rungs can
never alias each other in the run cache, and that mixed-fidelity
sweeps stay legible (the fidelity column survives the CSV round
trip).  Figure 4's per-rung cache keys are covered by
``tests/perf/test_equivalence.py::TestFigure4SpecKeys``.  Also holds
``make_simulator``/``mean_response`` to one construction and time-base
contract on every rung, and every simulator to rejecting a bad arrival
map when it is built.
"""

import csv
import io

import pytest

from repro import CLOCK_HZ, TICK
from repro.experiments.runner import prototype_response_s, sweep
from repro.kernel.costs import KernelCosts
from repro.obs.ledger import Ledger
from repro.perf.cache import cache_key
from repro.simulators import (
    FIDELITIES,
    GlobalEDFPolicy,
    MultiprocessorSimulator,
    PrototypeSimulator,
    TheoreticalSimulator,
    TLMCostTable,
    TLMSimulator,
    make_simulator,
    mean_response,
)
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)


def _taskset(n_cpus=2, utilization=0.40):
    return prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )


class TestCacheKeys:
    def test_sweep_keys_distinct_per_fidelity(self):
        point = {"n_cpus": 2, "utilization": 0.40}
        keys = {
            cache_key(kind="sweep", tag="t", point=dict(point, fidelity=f))
            for f in FIDELITIES
        }
        assert len(keys) == len(FIDELITIES)

    def test_version_partitions_keys(self, monkeypatch):
        """Pre-ladder cache entries are invalidated by the version
        bump: the package version is part of every key."""
        key_now = cache_key(kind="sweep", tag="t", point={"x": 1})
        monkeypatch.setattr("repro.perf.cache.__version__", "1.1.0")
        key_old = cache_key(kind="sweep", tag="t", point={"x": 1})
        assert key_now != key_old


class TestSweepFidelityColumns:
    """A rung is an ordinary grid column, last by convention."""

    @staticmethod
    def _measure(x, fidelity):
        return {"y": x * 10}

    def test_fidelity_is_a_parameter_column(self):
        result = sweep(self._measure, {"x": [1, 2], "fidelity": ["tlm"]})
        assert result.parameters == ["x", "fidelity"]
        assert result.rows[0] == {"x": 1, "fidelity": "tlm", "y": 10}
        assert result.column("fidelity") == ["tlm", "tlm"]
        assert "fidelity" in result.format().splitlines()[0]

    def test_csv_round_trip(self):
        result = sweep(self._measure, {"x": [1, 2], "fidelity": ["theoretical"]})
        parsed = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(parsed) == len(result.rows)
        for row, original in zip(parsed, result.rows):
            assert row["fidelity"] == original["fidelity"]
            assert int(row["x"]) == original["x"]
            assert int(row["y"]) == original["y"]

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError) as info:
            sweep(prototype_response_s, {"fidelity": ["rtl"]})
        assert "'rtl'" in str(info.value)
        assert str(FIDELITIES) in str(info.value)

    def test_single_rung_labels_the_ledger_entry(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        sweep(self._measure, {"x": [1], "fidelity": ["tlm"]}, ledger=ledger)
        sweep(self._measure, {"x": [1], "fidelity": ["tlm", "theoretical"]},
              ledger=ledger)
        sweep(self._measure, {"x": [1], "fidelity": ["tlm"]}, ledger=ledger,
              cache_tag="other")
        single, mixed, retagged = ledger.entries()
        assert single.fidelity == "tlm"
        assert mixed.fidelity is None
        assert single.config_hash != mixed.config_hash
        assert single.config_hash != retagged.config_hash

    def test_no_fidelity_keeps_legacy_shape(self):
        result = sweep(lambda x: {"y": x}, {"x": [3]})
        assert result.parameters == ["x"]
        assert "fidelity" not in result.rows[0]
        assert "wall_time_s" not in result.rows[0]


class TestMeasureDispatch:
    def test_tlm_and_theoretical_rungs(self):
        rows = {
            f: prototype_response_s(n_cpus=2, utilization=0.40,
                                    horizon_margin_s=14.0, fidelity=f)
            for f in ("theoretical", "tlm")
        }
        for row in rows.values():
            assert row["response_s"] > 0
            assert row["misses"] == 0
        # The TLM rung models contention the theoretical rung ignores.
        assert rows["tlm"]["tlm_transactions"] > 0
        assert rows["tlm"]["response_s"] > rows["theoretical"]["response_s"]

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            prototype_response_s(fidelity="gate-level")


class TestMakeSimulator:
    def test_dispatch(self):
        taskset = _taskset()
        expected = {
            "theoretical": TheoreticalSimulator,
            "tlm": TLMSimulator,
            "prototype": PrototypeSimulator,
        }
        assert tuple(expected) == FIDELITIES
        for fidelity, cls in expected.items():
            sim = make_simulator(fidelity, taskset, 2, scale=1_000)
            assert isinstance(sim, cls)
            # Only the prototype divides its workload; every rung maps
            # its own time base back through the same contract.
            assert sim.scale == (1_000 if fidelity == "prototype" else 1)
            assert sim.to_full_scale(7) == 7 * sim.scale

    def test_options_reach_their_rung(self):
        taskset = _taskset()
        table = TLMCostTable(wait_gain=0.3, base_overhead=0.01)
        costs = KernelCosts(context_primitive=123)
        tlm = make_simulator("tlm", taskset, 2, costs=costs, table=table)
        assert tlm.table is table and tlm.costs is costs
        proto = make_simulator("prototype", taskset, 2, scale=500, costs=costs)
        assert proto.config.scale == 500
        assert proto.config.costs is costs
        theo = make_simulator("theoretical", taskset, 2, overhead=0.05)
        assert theo.overhead == 0.05

    def test_unknown_fidelity_lists_the_rungs(self):
        with pytest.raises(ValueError) as info:
            make_simulator("spice", _taskset(), 2)
        assert "spice" in str(info.value)
        assert str(FIDELITIES) in str(info.value)

    def test_mean_response_is_full_scale_on_every_rung(self):
        taskset = _taskset()
        horizon = int(14.0 * CLOCK_HZ)
        arrivals = {AUTOMOTIVE_APERIODIC: [CLOCK_HZ]}
        for fidelity in FIDELITIES:
            sim = make_simulator(fidelity, taskset, 2, scale=1_000,
                                 bindings=automotive_bindings(),
                                 aperiodic_arrivals=arrivals)
            sim.run(horizon)
            mean, metrics = mean_response(sim, horizon, AUTOMOTIVE_APERIODIC)
            assert metrics.horizon == horizon // sim.scale
            scaled = metrics.response_of(AUTOMOTIVE_APERIODIC).mean
            assert mean == scaled * sim.scale
            # Full-scale means land near the 10.1 s standalone run.
            assert 10.0 * CLOCK_HZ < mean < 13.0 * CLOCK_HZ


class TestArrivalValidation:
    """Every rung rejects a bad arrival map when it is built, not
    somewhere inside ``run()``."""

    @staticmethod
    def _build(rung, taskset, arrivals):
        if rung == "baseline":
            return MultiprocessorSimulator(taskset, 2, GlobalEDFPolicy(),
                                           aperiodic_arrivals=arrivals)
        return make_simulator(rung, taskset, 2, scale=1_000,
                              aperiodic_arrivals=arrivals)

    @pytest.mark.parametrize("rung", FIDELITIES + ("baseline",))
    def test_unknown_name(self, rung):
        with pytest.raises(KeyError, match="nope"):
            self._build(rung, _taskset(), {"nope": [CLOCK_HZ]})

    @pytest.mark.parametrize("rung", FIDELITIES + ("baseline",))
    def test_periodic_name(self, rung):
        taskset = _taskset()
        periodic = taskset.periodic[0].name
        with pytest.raises(TypeError, match="not an aperiodic task"):
            self._build(rung, taskset, {periodic: [CLOCK_HZ]})
