"""Tests for the MiBench registry and the automotive workload builder."""

import pytest

from repro.analysis.schedulability import analyse_taskset
from repro.workloads import (
    AUTOMOTIVE_APERIODIC,
    AUTOMOTIVE_PERIODIC,
    MIBENCH_AUTOMOTIVE,
    automotive_bindings,
    build_automotive_taskset,
    get_benchmark,
    prepare_taskset,
)
from repro.workloads.automotive import (
    PERIOD_GRANULE,
    WCET_MARGIN,
    base_utilization,
)
from repro.workloads.mibench import WCET_TABLE

ALL_TASKS = AUTOMOTIVE_PERIODIC + [AUTOMOTIVE_APERIODIC]

#: What the simulators read per task: (WCET cycles, access_period,
#: access_words, stack_words).  Any change here changes REPORT.md and
#: every bench output.
CHARACTERISATION = {
    "basicmath-sqrt-small": (3_000_000, 40, 4, 512),
    "basicmath-sqrt-large": (30_000_000, 40, 4, 512),
    "basicmath-derivative-small": (2_000_000, 40, 4, 512),
    "basicmath-derivative-large": (20_000_000, 40, 4, 512),
    "basicmath-angle-small": (1_500_000, 40, 4, 512),
    "basicmath-angle-large": (15_000_000, 40, 4, 512),
    "bitcount-shift-small": (1_600_000, 80, 4, 256),
    "bitcount-shift-large": (16_000_000, 80, 4, 256),
    "bitcount-sparse-small": (1_200_000, 80, 4, 256),
    "bitcount-sparse-large": (12_000_000, 80, 4, 256),
    "bitcount-ntbl-small": (1_000_000, 80, 4, 256),
    "bitcount-ntbl-large": (10_000_000, 80, 4, 256),
    "bitcount-btbl-small": (900_000, 80, 4, 256),
    "bitcount-btbl-large": (9_000_000, 80, 4, 256),
    "bitcount-parallel-small": (800_000, 80, 4, 256),
    "bitcount-parallel-large": (8_000_000, 80, 4, 256),
    "qsort-qsort-small": (5_000_000, 24, 4, 1024),
    "qsort-qsort-large": (50_000_000, 24, 4, 1024),
    "susan-smoothing-large": (505_000_000, 45, 4, 2048),
}


class TestRegistry:
    def test_all_groups_present(self):
        groups = {spec.group for spec in MIBENCH_AUTOMOTIVE.values()}
        assert groups == {"basicmath", "bitcount", "qsort", "susan"}

    def test_one_entry_per_workload_task(self):
        tasks = AUTOMOTIVE_PERIODIC + [AUTOMOTIVE_APERIODIC]
        assert len(tasks) == 19
        assert sorted(MIBENCH_AUTOMOTIVE) == sorted(tasks)
        assert len(WCET_TABLE) == 19

    def test_both_datasets_everywhere(self):
        for name in MIBENCH_AUTOMOTIVE:
            assert name.endswith("-small") or name.endswith("-large")

    def test_large_wcet_exceeds_small(self):
        for name in MIBENCH_AUTOMOTIVE:
            if name.endswith("-small"):
                large = name.replace("-small", "-large")
                assert (
                    MIBENCH_AUTOMOTIVE[large].wcet_cycles
                    > MIBENCH_AUTOMOTIVE[name].wcet_cycles
                )

    def test_paper_calibration_point(self):
        # susan/large = the aperiodic task: ~10.1 s at 50 MHz.
        spec = get_benchmark("susan-smoothing-large")
        assert spec.wcet_cycles == 505_000_000
        assert spec.wcet_cycles / 50_000_000 == pytest.approx(10.1)

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("quake-3")

    def test_bitcount_has_ten_entries(self):
        names = [n for n, s in MIBENCH_AUTOMOTIVE.items() if s.group == "bitcount"]
        assert len(names) == 10
        assert all("bitcount" in n for n in names)


    @pytest.mark.parametrize("name", ALL_TASKS)
    def test_characterisation_pinned(self, name):
        spec = get_benchmark(name)
        assert (
            spec.wcet_cycles,
            spec.profile.access_period,
            spec.profile.access_words,
            spec.stack_words,
        ) == CHARACTERISATION[name]
        assert spec.name == name
        assert name == f"{spec.group}-{name.split('-')[1]}-{spec.dataset}"


class TestAutomotiveWorkload:
    def test_eighteen_periodic_one_aperiodic(self):
        assert len(AUTOMOTIVE_PERIODIC) == 18
        ts = build_automotive_taskset(0.5, 2)
        assert len(ts.periodic) == 18
        assert len(ts.aperiodic) == 1
        assert ts.aperiodic[0].name == AUTOMOTIVE_APERIODIC

    @pytest.mark.parametrize("n_cpus", [2, 3, 4])
    @pytest.mark.parametrize("util", [0.40, 0.50, 0.60])
    def test_utilization_targets_met(self, n_cpus, util):
        ts = build_automotive_taskset(util, n_cpus)
        assert ts.utilization == pytest.approx(util * n_cpus, rel=0.02)

    def test_acet_below_wcet_by_margin(self):
        ts = build_automotive_taskset(0.5, 2)
        for task in ts.periodic:
            assert task.wcet == pytest.approx(task.acet * WCET_MARGIN, rel=0.01)

    def test_workload_scales_with_cpus(self):
        two = build_automotive_taskset(0.5, 2)
        four = build_automotive_taskset(0.5, 4)
        # Same utilization fraction on more cpus = shorter periods.
        assert four.by_name("qsort-qsort-large").period < two.by_name(
            "qsort-qsort-large"
        ).period

    def test_prepare_produces_schedulable_partition(self):
        for n_cpus in (2, 3, 4):
            ts = build_automotive_taskset(0.60, n_cpus)
            prepared = prepare_taskset(ts, n_cpus, tick=5_000_000)
            report = analyse_taskset(prepared, n_cpus)
            assert report.schedulable
            prepared.require_analysed()

    def test_promotions_tick_aligned(self):
        ts = prepare_taskset(build_automotive_taskset(0.5, 2), 2, tick=5_000_000)
        assert all(t.promotion % 5_000_000 == 0 for t in ts.periodic)

    def test_bindings_cover_all_tasks(self):
        bindings = automotive_bindings()
        ts = build_automotive_taskset(0.5, 2)
        for task in ts:
            assert task.name in bindings

    @pytest.mark.parametrize("name", ALL_TASKS)
    def test_binding_carries_spec(self, name):
        binding = automotive_bindings()[name]
        spec = get_benchmark(name)
        assert binding.profile == spec.profile
        assert binding.stack_words == spec.stack_words

    @pytest.mark.parametrize("name", ALL_TASKS)
    def test_budget_is_padded_table_wcet(self, name):
        ts = build_automotive_taskset(0.5, 2)
        task = ts.by_name(name)
        spec = get_benchmark(name)
        assert task.acet == spec.wcet_cycles
        assert task.wcet == int(spec.wcet_cycles * WCET_MARGIN)
        if name != AUTOMOTIVE_APERIODIC:
            assert task.period % PERIOD_GRANULE == 0
            assert task.period >= task.wcet

    def test_base_utilization_positive(self):
        assert 0.5 < base_utilization() < 3.0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            build_automotive_taskset(0.0, 2)
        with pytest.raises(ValueError):
            build_automotive_taskset(1.0, 2)
