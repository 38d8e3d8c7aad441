"""WCET soundness regression: for every asmlib kernel driver, across a
seed sweep, measured executor cycles never exceed the verified WCET
bound, which never exceeds the annotation-based bound.  Also emits the
tightness report (bound/measured ratios) so regressions in pruning
quality show up in the test log."""

import pytest

from repro.lint.absint import (
    EXPECTED_COUNTED,
    audit_kernel,
    audit_kernels,
    format_audit,
)

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def audits():
    return audit_kernels(seeds=SEEDS)


def test_covers_every_kernel_and_seed(audits):
    assert {(a.kernel, a.seed) for a in audits} == {
        (kernel, seed) for kernel in EXPECTED_COUNTED for seed in SEEDS
    }


def test_measured_never_exceeds_verified_bound(audits):
    for audit in audits:
        assert audit.wcet.verified_cycles is not None, audit.kernel
        assert audit.measured <= audit.wcet.verified_cycles, (
            f"{audit.kernel} seed={audit.seed}: measured {audit.measured} "
            f"> verified bound {audit.wcet.verified_cycles}"
        )


def test_verified_never_exceeds_annotated_bound(audits):
    for audit in audits:
        assert audit.wcet.annotated_cycles is not None, audit.kernel
        assert audit.wcet.verified_cycles <= audit.wcet.annotated_cycles, (
            f"{audit.kernel} seed={audit.seed}"
        )


def test_every_audit_check_passes(audits):
    failing = [
        (audit.kernel, audit.seed, name, detail)
        for audit in audits
        for name, ok, detail in audit.checks
        if not ok
    ]
    assert not failing, failing


def test_counted_loops_bound_their_measured_executions(audits):
    for audit in audits:
        for label in EXPECTED_COUNTED[audit.kernel]:
            assert label in audit.loop_executions, (audit.kernel, label)
            assert audit.loop_executions[label] >= 1, (audit.kernel, label)


def test_at_least_one_kernel_strictly_tighter(audits):
    tightened = sorted({a.kernel for a in audits if a.wcet.tightened})
    assert tightened, "no kernel shows verified < annotated"


def test_tightness_report_renders(audits, capsys):
    report = format_audit(audits)
    # One row per (kernel, seed) plus header and summary line.
    assert len(report.splitlines()) == len(audits) + 2
    assert "ver/meas" in report and "ann/meas" in report
    print(report)  # visible with pytest -s / on failure re-runs


def test_single_kernel_audit_is_deterministic():
    first = audit_kernel("array_sum", seed=2)
    second = audit_kernel("array_sum", seed=2)
    assert first.measured == second.measured
    assert first.wcet.verified_cycles == second.wcet.verified_cycles
    assert first.loop_executions == second.loop_executions
