"""Assembly lint pass: golden diagnostics on seeded-bad fixtures,
clean runs over the shipped routine library, and the WCET bound
cross-checked against the cycle-accurate executor."""

import pytest

from repro.hw.asmlib import ROUTINES, link
from repro.hw.assembler import assemble
from repro.hw.isa import ISAExecutor
from repro.hw.soc import SoC, SoCConfig
from repro.lint.asm import (
    CALLING_CONVENTION_PARAMS,
    lint_program,
    lint_source,
    wcet_bound,
)


def lint(source, **kwargs):
    return lint_program(assemble(source), **kwargs)


def run(program, max_instructions=5_000_000):
    soc = SoC(SoCConfig(n_cpus=1))
    executor = ISAExecutor(soc.core(0), program)
    soc.sim.process(executor.run(max_instructions))
    soc.sim.run()
    return executor


# ------------------------------------------------------------ bad fixtures
class TestGoldenDiagnostics:
    def test_asm000_assembler_error(self):
        report = lint_source("frobnicate r1, r2")
        assert report.rules() == ["ASM000"]
        assert not report.ok

    def test_asm001_uninitialized_read(self):
        report = lint("add r3, r4, r5\nhalt")
        flagged = report.by_rule("ASM001")
        assert {d.message.split()[2].rstrip(",") for d in flagged} == {"r4", "r5"}

    def test_asm001_one_path_unwritten(self):
        # r4 is written only when the branch is taken past the write.
        report = lint(
            """
                addi r3, r0, 1
                beqz r3, use
                addi r4, r0, 7
            use:
                add  r3, r4, r3
                halt
            """
        )
        assert len(report.by_rule("ASM001")) == 1
        assert "r4" in report.by_rule("ASM001")[0].message

    def test_asm001_silenced_by_params(self):
        report = lint("add r3, r4, r5\nhalt", params=(4, 5))
        assert report.clean

    def test_asm001_locations_name_line_and_label(self):
        report = lint_source("top:\n    add r3, r4, r5\n    halt")
        where = report.by_rule("ASM001")[0].location
        assert "line 2" in where and "top" in where

    def test_asm002_unreachable_run(self):
        report = lint(
            """
                halt
                addi r3, r0, 1
                addi r4, r0, 2
            """
        )
        dead = report.by_rule("ASM002")
        assert len(dead) == 1
        assert "2 instruction(s)" in dead[0].message
        assert report.ok  # warning, not error

    def test_asm003_fall_past_end(self):
        report = lint("addi r3, r0, 1")
        assert report.by_rule("ASM003")
        assert not report.ok

    def test_asm004_misaligned_absolute(self):
        report = lint("lwi r3, r0, 0x40000002\nhalt")
        assert "not word aligned" in report.by_rule("ASM004")[0].message

    def test_asm004_unmapped_absolute(self):
        report = lint("addi r3, r0, 1\nswi r3, r0, 0x70000000\nhalt")
        assert "no memory region" in report.by_rule("ASM004")[0].message

    def test_asm005_branch_outside_program(self):
        report = lint("br 100")
        assert report.by_rule("ASM005")

    def test_asm005_empty_program(self):
        from repro.hw.isa import Program

        empty = Program(instructions=[])
        report = lint_program(empty)
        assert report.by_rule("ASM005")
        assert not wcet_bound(empty).bounded

    def test_asm006_unbounded_loop(self):
        result = wcet_bound(
            assemble(
                """
                    addi r3, r0, 5
                loop:
                    addi r3, r3, -1
                    bnez r3, loop
                    halt
                """
            )
        )
        assert not result.bounded
        assert result.report.by_rule("ASM006")

    def test_asm007_write_to_r0(self):
        report = lint("addi r3, r0, 1\nadd r0, r3, r3\nhalt")
        assert report.by_rule("ASM007")
        assert report.ok  # warning only

    def test_asm008_recursion_rejected(self):
        report = lint(
            """
            main:
                brl r15, recur
                halt
            recur:
                brl r15, recur
                jr  r15
            """
        )
        assert report.by_rule("ASM008")
        assert not report.ok


# ----------------------------------------------------------- clean library
class TestLibraryIsClean:
    @pytest.mark.parametrize("name", sorted(ROUTINES))
    def test_routine_clean_under_calling_convention(self, name):
        report = lint(ROUTINES[name], params=CALLING_CONVENTION_PARAMS)
        assert report.clean, report.format(header=name)

    def test_linked_driver_clean(self):
        program = link(
            """
                addi r5, r0, 0x12345678
                brl  r15, popcount32
                swi  r3, r0, 0x40010000
                halt
            """,
            routines=["popcount32"],
        )
        assert lint_program(program).clean


# ------------------------------------------------------------- WCET bound
DRIVERS = {
    "memcpy_words": (
        """
        .data 0x40010000
        src: .word 11 22 33 44 55
        .data 0x40020000
        dst: .space 5
        .text 0x40000000
            addi r5, r0, src
            addi r6, r0, dst
            addi r7, r0, 5
            brl  r15, memcpy_words
            halt
        """,
        {"memcpy_loop": 5},
    ),
    "array_sum": (
        """
        .data 0x40010000
        arr: .word 10 20 30 40
        .text 0x40000000
            addi r5, r0, arr
            addi r6, r0, 4
            brl  r15, array_sum
            swi  r3, r0, 0x40020000
            halt
        """,
        {"array_sum_loop": 4},
    ),
    "popcount32": (
        """
            addi r5, r0, 0xF0F0F0F0
            brl  r15, popcount32
            swi  r3, r0, 0x40020000
            halt
        """,
        {},
    ),
    "crc32_word": (
        """
            addi r5, r0, 0x12345678
            addi r6, r0, 0xFFFFFFFF
            brl  r15, crc32_word
            swi  r3, r0, 0x40020000
            halt
        """,
        {"crc32_bit": 32},
    ),
    "isqrt32": (
        """
            addi r5, r0, 100
            brl  r15, isqrt32
            swi  r3, r0, 0x40020000
            halt
        """,
        # Newton halves the error each round; the inner division
        # subtracts at least 1 from a dividend <= 100 per iteration.
        {"isqrt_loop": 40, "isqrt_div": 128},
    ),
}


class TestWCETCrossCheck:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_static_bound_dominates_measured_cycles(self, name):
        source, bounds = DRIVERS[name]
        program = link(source, routines=[name])
        executor = run(program)
        result = wcet_bound(program, loop_bounds=bounds)
        assert result.bounded, result.report.format(header=name)
        assert result.cycles >= executor.cycles, (
            f"{name}: static bound {result.cycles} < measured {executor.cycles}"
        )

    def test_bound_scales_with_loop_bound(self):
        program = assemble(
            """
                addi r3, r0, 5
            loop:
                addi r3, r3, -1
                bnez r3, loop
                halt
            """
        )
        small = wcet_bound(program, loop_bounds={"loop": 5})
        large = wcet_bound(program, loop_bounds={"loop": 50})
        assert small.bounded and large.bounded
        assert large.cycles > small.cycles

    def test_straightline_bound_is_sum_of_costs(self):
        from repro.lint.asm import CostModel

        program = assemble("addi r3, r0, 1\nswi r3, r0, 0x40010000\nhalt")
        model = CostModel()
        expected = sum(model.cost(i) for i in program.instructions)
        assert wcet_bound(program).cycles == expected
