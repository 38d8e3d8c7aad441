"""Fidelity-ladder threading: selector, cache keys, sweep columns.

Guards the invariant that runs of *different* simulation rungs can
never alias each other in the run cache, and that mixed-fidelity
sweeps stay legible (the fidelity column survives the CSV round
trip).  Figure 4's per-rung cache keys are covered by
``tests/perf/test_equivalence.py::TestFigure4SpecKeys``.
"""

import csv
import io

import pytest

from repro import TICK
from repro.experiments.runner import (
    SweepResult,
    fault_campaign,
    prototype_response_s,
    sweep,
)
from repro.perf.cache import cache_key
from repro.simulators import (
    FIDELITIES,
    PrototypeConfig,
    PrototypeSimulator,
    TheoreticalSimulator,
    TLMSimulator,
    make_simulator,
)
from repro.workloads.automotive import build_automotive_taskset, prepare_taskset


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
    @staticmethod
    def _measure(x, fidelity):
        return {"y": x * 10}

    def test_fidelity_is_a_parameter_column(self):
        result = sweep(self._measure, {"x": [1, 2]}, fidelity="tlm")
        assert result.parameters == ["x", "fidelity"]
        assert result.column("fidelity") == ["tlm", "tlm"]
        assert "fidelity" in result.format().splitlines()[0]

    def test_csv_round_trip(self):
        result = sweep(self._measure, {"x": [1, 2]}, fidelity="theoretical")
        parsed = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(parsed) == len(result.rows)
        for row, original in zip(parsed, result.rows):
            assert row["fidelity"] == original["fidelity"]
            assert int(row["x"]) == original["x"]
            assert int(row["y"]) == original["y"]

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            sweep(self._measure, {"x": [1]}, fidelity="rtl")

    def test_fidelity_grid_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            sweep(self._measure, {"fidelity": ["tlm"]}, fidelity="tlm")

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

    def test_fault_campaign_requires_prototype(self):
        with pytest.raises(ValueError, match="fault"):
            fault_campaign(n_runs=1, until=100_000, fidelity="tlm")


class TestMakeSimulator:
    def test_dispatch(self):
        taskset = _taskset()
        expected = {
            "theoretical": TheoreticalSimulator,
            "tlm": TLMSimulator,
            "prototype": PrototypeSimulator,
        }
        for fidelity, cls in expected.items():
            config = PrototypeConfig(
                n_cpus=2, tick=TICK,
                scale=1_000 if fidelity == "prototype" else 1,
                fidelity=fidelity,
            )
            assert isinstance(make_simulator(taskset, config), cls)

    def test_config_validates_fidelity(self):
        with pytest.raises(ValueError, match="fidelity"):
            PrototypeConfig(fidelity="spice")

    def test_prototype_rejects_other_rungs(self):
        config = PrototypeConfig(n_cpus=2, tick=TICK, fidelity="tlm")
        with pytest.raises(ValueError, match="prototype"):
            PrototypeSimulator(_taskset(), config)
