"""The isa-kernels outputs digest repeats across runs and under tracing,
and an op that raises leaves every other op checked.

Runs the workload in-process at the kernels' default iteration counts
(a twentieth of the benchmark's) to stay fast.
"""

import pytest
from repro.perf import isabench

from bench import measure as measure_module
from bench.instrument import Instruments
from bench.workloads import IsaKernels


def measure(seed, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(IsaKernels, "SCALE", 1)
    monkeypatch.setattr(measure_module, "OUT_DIR", str(tmp_path))
    return measure_module.run(IsaKernels.name, seed, 0.0, trace)


@pytest.mark.parametrize("seed", [0])
def test_digest_repeats_and_survives_tracing(seed, tmp_path, monkeypatch):
    first = measure(seed, False, tmp_path, monkeypatch)
    second = measure(seed, False, tmp_path, monkeypatch)
    traced = measure(seed, True, tmp_path, monkeypatch)

    assert first["failed"] == 0 and first["problems"] == {}
    assert first["outputs_sha256"] == second["outputs_sha256"]
    # The traced pass must reproduce every untraced outcome, or it is
    # reported as a problem; its digest covers the untraced pass.
    assert traced["problems"] == {}
    assert traced["outputs_sha256"] == first["outputs_sha256"]
    assert first["counters"] == traced["counters"]
    layers = traced["trace"]["layers"]
    busiest = max(layers, key=lambda layer: layers[layer]["self_s"])
    assert busiest == "hw.isa"
    assert (tmp_path / f"isa-kernels-seed{seed}.perfetto.json").exists()


def test_a_failing_op_hides_no_other_check(tmp_path, monkeypatch):
    run_kernel = isabench.run_kernel

    def faulty(name, mode, **kwargs):
        if name == "crc32_word" and kwargs.get("iterations") is not None:
            raise RuntimeError("injected")
        summary = run_kernel(name, mode, **kwargs)
        if name == "popcount32" and mode == "reference":
            summary = dict(summary, retired=summary["retired"] + 1)
        return summary

    monkeypatch.setattr(isabench, "run_kernel", faulty)
    result = measure(0, False, tmp_path, monkeypatch)

    crashed = [key for key in result["problems"] if key.startswith("crc32_word#")]
    assert len(crashed) == 2
    assert "RuntimeError: injected" in result["problems"][crashed[0]][0]
    # The other ops are still checked and counted.
    assert "block differs from reference" in result["problems"]["block:popcount32"][0]
    assert result["failed"] == 3
    assert result["counters"]["hw.isa.retired"] > 0


def test_seed_drives_the_iteration_counts():
    zero = IsaKernels(0, Instruments()).runs
    assert zero == IsaKernels(0, Instruments()).runs
    assert zero != IsaKernels(1, Instruments()).runs
