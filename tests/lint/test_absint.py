"""Abstract interpretation: interval algebra, annotation parsing, loop
bound inference, the ASM1xx audit rules, memory/stack proofs, and the
path-pruned verified WCET."""

import pytest

from repro.hw.asmlib import ROUTINES
from repro.hw.assembler import assemble
from repro.kernel.microkernel import TaskBinding
from repro.lint.absint import (
    DEFAULT_STACK_BUDGET_WORDS,
    EXPECTED_COUNTED,
    TOP,
    AnnotationError,
    Interval,
    analyse,
    audit_annotation_rules,
    audit_routine,
    const,
    kernel_driver_source,
    parse_annotations,
    refine_branch,
    verified_wcet,
)
from repro.lint.asm import ProgramAnalysis

MAXU = 0xFFFF_FFFF


# --------------------------------------------------------------- intervals
class TestInterval:
    def test_join_is_hull(self):
        assert Interval(1, 3).join(Interval(7, 9)) == Interval(1, 9)

    def test_meet_intersects_or_is_empty(self):
        assert Interval(1, 5).meet(Interval(3, 9)) == Interval(3, 5)
        assert Interval(1, 2).meet(Interval(5, 9)) is None

    def test_widen_jumps_to_extremes(self):
        grown = Interval(0, 5).widen(Interval(0, 6))
        assert grown.hi == MAXU and grown.lo == 0
        assert Interval(0, 5).widen(Interval(0, 5)) == Interval(0, 5)

    def test_signed_bounds(self):
        assert const(MAXU).signed_bounds() == (-1, -1)
        assert const(5).signed_bounds() == (5, 5)
        assert TOP.signed_bounds() == (-(2**31), 2**31 - 1)

    def test_const_and_top_predicates(self):
        assert const(7).is_const and const(7).value == 7
        assert TOP.is_top and not TOP.is_const

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 1)


class TestRefineBranch:
    def test_beqz_splits_zero(self):
        taken, fall = refine_branch("beqz", Interval(0, 5))
        assert taken == Interval(0, 0)
        assert fall == Interval(1, 5)

    def test_beqz_on_nonzero_is_infeasible(self):
        taken, fall = refine_branch("beqz", const(1))
        assert taken is None
        assert fall == const(1)

    def test_bnez_mirrors_beqz(self):
        taken, fall = refine_branch("bnez", Interval(0, 5))
        assert taken == Interval(1, 5)
        assert fall == Interval(0, 0)


# ------------------------------------------------------------- annotations
class TestAnnotations:
    def test_trailing_bound_and_param(self):
        ann = parse_annotations(
            "#@ param r5 in 1..10\n"
            "start:\n"
            "loop:   #@ bound=32\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        assert ann.loop_bounds == {"loop": 32}
        assert ann.reg_ranges[5] == Interval(1, 10)

    def test_bad_bound_rejected(self):
        with pytest.raises(AnnotationError):
            parse_annotations("loop:  #@ bound=banana\n")

    def test_bad_param_range_rejected(self):
        with pytest.raises(AnnotationError):
            parse_annotations("#@ param r5 in 9..1\n")


# --------------------------------------------------------- bound inference
def analyse_source(source, **kwargs):
    return analyse(assemble(source), **kwargs)


class TestLoopInference:
    def test_do_while_countdown(self):
        result = analyse_source(
            "    addi r3, r0, 5\n"
            "loop:\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        assert result.ok
        assert sorted(result.inferred_bounds().values()) == [5]

    def test_while_style_guard_at_top(self):
        result = analyse_source(
            "    addi r3, r0, 4\n"
            "loop:\n"
            "    beqz r3, done\n"
            "    addi r3, r3, -1\n"
            "    br loop\n"
            "done:\n"
            "    halt\n"
        )
        assert result.ok
        assert sorted(result.inferred_bounds().values()) == [5]

    def test_interval_entry_uses_upper_bound(self):
        result = analyse_source(
            "#@ param r3 in 1..9\n"
            "loop:\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n",
            reg_ranges=parse_annotations("#@ param r3 in 1..9\n").reg_ranges,
        )
        assert sorted(result.inferred_bounds().values()) == [9]

    def test_data_dependent_loop_not_counted(self):
        # The counter comes out of memory: TOP, so no bound is inferable.
        result = analyse_source(
            "    lwi r3, r0, 0x40008000\n"
            "loop:\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        assert result.ok  # analysis converges (widening), just unbounded
        assert result.inferred_bounds() == {}

    def test_driver_context_tightens_kernel_bound(self):
        """The memcpy driver passes a small n, so the same loop that is
        annotated 64 in the routine contract infers far tighter."""
        source = kernel_driver_source("memcpy_words", seed=1)
        wcet = verified_wcet(
            assemble(source), annotations=parse_annotations(source)
        )
        assert wcet.absint.ok
        assert wcet.tightened
        inferred = wcet.absint.inferred_bounds()
        assert inferred and max(inferred.values()) < 64


# ------------------------------------------------------- ASM1xx audit rules
def audit_source(source):
    annotations = parse_annotations(source)
    program = assemble(source)
    analysis = ProgramAnalysis(program, entry=0)
    result = analyse(
        program, reg_ranges=annotations.reg_ranges, analysis=analysis
    )
    return audit_annotation_rules(result, annotations, analysis), result


class TestAnnotationRules:
    def test_asm101_missing_but_inferable_is_warning(self):
        report, _ = audit_source(
            "    addi r3, r0, 5\n"
            "loop:\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        found = report.by_rule("ASM101")
        assert found and report.ok  # warning only

    def test_asm101_missing_and_not_inferable_is_error(self):
        report, _ = audit_source(
            "    lwi r3, r0, 0x40008000\n"
            "loop:\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        found = report.by_rule("ASM101")
        assert found and not report.ok

    def test_asm102_loose_annotation_is_warning(self):
        report, _ = audit_source(
            "    addi r3, r0, 5\n"
            "loop:   #@ bound=100\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        found = report.by_rule("ASM102")
        assert found and report.ok

    def test_asm103_unsound_annotation_is_error(self):
        report, _ = audit_source(
            "    addi r3, r0, 5\n"
            "loop:   #@ bound=3\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        found = report.by_rule("ASM103")
        assert found and not report.ok

    def test_exact_annotation_is_silent(self):
        report, _ = audit_source(
            "    addi r3, r0, 5\n"
            "loop:   #@ bound=5\n"
            "    addi r3, r3, -1\n"
            "    bnez r3, loop\n"
            "    halt\n"
        )
        assert report.clean


# --------------------------------------------------- memory / stack proofs
class TestMemorySafety:
    def test_in_range_store_is_proven(self):
        result = analyse_source("addi r3, r0, 7\nswi r3, r0, 0x40010000\nhalt")
        assert result.ok and not result.report.by_rule("ASM104")

    def test_misaligned_constant_is_asm104(self):
        result = analyse_source("lwi r3, r0, 0x123\nhalt")
        assert result.report.by_rule("ASM104")

    def test_out_of_map_address_is_asm104(self):
        result = analyse_source("swi r0, r0, 0x70000000\nhalt")
        assert result.report.by_rule("ASM104")

    def test_unprovable_top_address_is_asm104(self):
        result = analyse_source(
            "lwi r4, r0, 0x40008000\nswi r0, r4, 0\nhalt"
        )
        assert result.report.by_rule("ASM104")


class TestStackSafety:
    CALL_CHAIN = (
        "    addi r3, r0, 1\n"
        "    brl r15, leaf\n"
        "    halt\n"
        "leaf:\n"
        "    addi r4, r0, 2\n"
        "    jr r15\n"
    )

    def test_depth_within_budget_is_proven(self):
        result = analyse_source(self.CALL_CHAIN)
        assert result.ok
        assert 0 < result.stack_words <= result.stack_budget

    def test_overflow_is_asm105(self):
        result = analyse_source(self.CALL_CHAIN, stack_budget=1)
        assert result.report.by_rule("ASM105")

    def test_budget_matches_kernel_stack_allocation(self):
        """The lint default must mirror the microkernel's per-task stack
        so a proof here is a proof about real task contexts."""
        assert DEFAULT_STACK_BUDGET_WORDS == TaskBinding.stack_words


# ------------------------------------------------------------ path pruning
class TestPathPruning:
    def test_infeasible_branch_excluded_from_wcet(self):
        wcet = verified_wcet(
            assemble(
                "    addi r3, r0, 1\n"
                "    beqz r3, slow\n"
                "    halt\n"
                "slow:\n"
                "    addi r4, r0, 1\n"
                "    addi r4, r4, 1\n"
                "    halt\n"
            )
        )
        assert wcet.absint.ok
        assert wcet.absint.infeasible_edges
        assert wcet.verified_cycles < wcet.annotated_cycles
        assert wcet.tightened

    def test_feasible_both_ways_is_not_pruned(self):
        wcet = verified_wcet(
            assemble(
                "#@ param r3 in 0..1\n"
                "    beqz r3, other\n"
                "    halt\n"
                "other:\n"
                "    halt\n"
            ),
            reg_ranges=parse_annotations("#@ param r3 in 0..1\n").reg_ranges,
        )
        assert wcet.verified_cycles == wcet.annotated_cycles


# ------------------------------------------------------------- asmlib audit
class TestRoutineAudits:
    @pytest.mark.parametrize("name", sorted(ROUTINES))
    def test_every_routine_contract_verifies(self, name):
        audit = audit_routine(name)
        assert audit.ok, audit.report.format()

    @pytest.mark.parametrize(
        "name", [k for k, loops in sorted(EXPECTED_COUNTED.items()) if loops]
    )
    def test_expected_loops_are_counted(self, name):
        audit = audit_routine(name)
        counted = {
            summary.label
            for summary in audit.result.loops.values()
            if summary.counted and summary.inferred is not None
        }
        assert set(EXPECTED_COUNTED[name]) <= counted
