"""Generated region code vs the semantic callables of ``repro.hw.isa``.

The region compiler's generated code and the callables the reference
interpreter calls are both derived from one table of expression
templates.  These tests pin the two derivations to each other, and both
to the ISA's semantics written out plainly below, on edge operands and
hypothesis-drawn 32-bit values.  Each instruction runs in both shapes of
generated code: a loop-free region, which works on the register list in
place, and a looping region, which keeps registers in locals and here
runs its one arm as an inner loop.

Generated code trusts that registers and immediates are 32-bit patterns
and folds constant operands (r0 and immediates): every folded form, a
literal, a copy or a literal shift amount, runs here against the same
semantics.  The reference's callables mask their operands instead, and
are checked on wider integers too.  The last test holds the generated
code of every asmlib kernel program to that: no input mask, no run-time
constant, and the divide loop of ``isqrt32`` as an inner loop.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import isa
from repro.hw.asmlib import link
from repro.hw.cache import DirectMappedICache
from repro.hw.isa import (
    MASK32,
    OPCODES,
    Instruction,
    Program,
    _ALU_FUNCS,
    _BRANCH_TESTS,
    _CompiledRegions,
    _compile_regions,
    _decode_program,
    _memory_map,
    _signed,
)
from repro.hw.soc import SoC, SoCConfig
from repro.perf.isabench import KERNEL_DRIVERS

EDGE = (0, 1, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
WORDS = st.one_of(st.sampled_from(EDGE), st.integers(0, MASK32))

#: The ISA's semantics, written independently of the template table.
EXPECTED_ALU = {
    "add": lambda a, b: (a + b) % 2**32,
    "sub": lambda a, b: (a - b) % 2**32,
    "rsub": lambda a, b: (b - a) % 2**32,
    "mul": lambda a, b: (a * b) % 2**32,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: (a << (b % 32)) % 2**32,
    "srl": lambda a, b: a >> (b % 32),
    "sra": lambda a, b: (_signed(a) >> (b % 32)) % 2**32,
    "cmp": lambda a, b: (_signed(b) - _signed(a)) % 2**32,
}
EXPECTED_BRANCH = {
    "beqz": lambda v: v == 0,
    "bnez": lambda v: v != 0,
    "bltz": lambda v: v < 0,
    "blez": lambda v: v <= 0,
    "bgtz": lambda v: v > 0,
    "bgez": lambda v: v >= 0,
}

ALU_OPS = sorted(_ALU_FUNCS)
IMM_OPS = [op for op in ALU_OPS if op + "i" in OPCODES]
BRANCH_OPS = sorted(_BRANCH_TESTS)


def test_tables_cover_the_opcode_set():
    assert sorted(EXPECTED_ALU) == ALU_OPS
    assert sorted(EXPECTED_BRANCH) == BRANCH_OPS
    assert all(op in OPCODES for op in ALU_OPS + BRANCH_OPS)


#: The default SoC's memory map.
MEMORY = _memory_map(SoC(SoCConfig(n_cpus=1)).cores[0])


def _compiled(*instructions):
    """The region entered at pc 0 of ``instructions`` plus a tag list
    that hits on every line."""
    program = Program(instructions=list(instructions))
    icache = DirectMappedICache(0)
    for index in range(len(program)):
        icache.fill_line(program.address_of(index))
    return _compile_regions(program, icache, MEMORY).entry(0), icache._tags


def _exit(region, regs, tags, fuel):
    """``(next_pc, cycles, retired)`` of a region of a program that
    accesses no memory, run from pc 0 with ``fuel``."""
    *exit_, checkpoint = region(regs, tags, fuel, 0, 0, 0, [].append, {},
                                None)
    assert checkpoint is None
    return tuple(exit_)


def _run_alu(instruction, regs_in):
    """Register 3 after ``instruction`` runs once in each region shape:
    the loop-free ``instruction; halt`` and the looping ``instruction;
    bnez r3 -> 0; halt``, where r3 is a local written back at the exit."""
    results = []
    for tail, exits in (
            ("halt", [(1, 1, 1)]),
            ("bnez", [(0, 2 + isa.BRANCH_PENALTY, 2), (2, 2, 2)]),
    ):
        region, tags = _compiled(instruction,
                                 Instruction(op=tail, rd=3, imm=0),
                                 Instruction(op="halt"))
        regs = [0] * 32
        for reg, value in regs_in.items():
            regs[reg] = value
        assert _exit(region, regs, tags, 2) in exits
        results.append(regs[3])
    assert results[0] == results[1]
    return results[0]


def _alu_reg(op, a, b):
    return _run_alu(Instruction(op=op, rd=3, ra=1, rb=2), {1: a, 2: b})


def _alu_imm(op, a, imm):
    return _run_alu(Instruction(op=op + "i", rd=3, ra=1, imm=imm), {1: a})


def _branch_taken(op, v):
    """Whether ``op`` on r1 = ``v`` is taken, in each region shape: the
    loop-free ``op; halt`` and the looping ``op; br 0``."""
    taken = []
    for tail in ("halt", "br"):
        region, tags = _compiled(Instruction(op=op, rd=1, imm=2),
                                 Instruction(op=tail, imm=0),
                                 Instruction(op="halt"))
        regs = [0] * 32
        regs[1] = v
        exit_ = _exit(region, regs, tags, 2)
        not_taken = (1, 1, 1) if tail == "halt" else (
            0, 2 + isa.BRANCH_PENALTY, 2)
        assert exit_ in ((2, 1 + isa.BRANCH_PENALTY, 1), not_taken)
        taken.append(exit_[0] == 2)
    assert taken[0] == taken[1]
    return taken[0]


@pytest.mark.parametrize("op", ALU_OPS)
def test_alu_register_form_edges(op):
    for a in EDGE:
        for b in EDGE:
            expected = EXPECTED_ALU[op](a, b)
            assert _ALU_FUNCS[op](a, b) == expected, (op, a, b)
            assert _alu_reg(op, a, b) == expected, (op, a, b)


@pytest.mark.parametrize("op", IMM_OPS)
def test_alu_immediate_form_edges(op):
    for a in EDGE:
        for imm in EDGE + (-1, -32):
            expected = EXPECTED_ALU[op](a, imm & MASK32)
            assert _ALU_FUNCS[op](a, imm & MASK32) == expected, (op, a, imm)
            assert _alu_imm(op, a, imm) == expected, (op, a, imm)


@pytest.mark.parametrize("op", BRANCH_OPS)
def test_branch_edges(op):
    for v in EDGE:
        expected = EXPECTED_BRANCH[op](_signed(v))
        assert _BRANCH_TESTS[op](_signed(v)) == expected, (op, v)
        assert _branch_taken(op, v) == expected, (op, v)


#: Immediates a constant ``r0`` operand folds with: identities, the
#: widest shift, a shift amount that wraps to 0, and all ones.
FOLD_IMMS = (0, 31, 32, 0xFFFFFFFF)


@pytest.mark.parametrize("op", ALU_OPS)
def test_alu_folds_r0_operands(op):
    """r0 as either register operand is a constant the region folds:
    into a literal, a copy of the other operand, or an expression."""
    for v in EDGE:
        expected = EXPECTED_ALU[op](0, v)
        assert _ALU_FUNCS[op](0, v) == expected, (op, v)
        assert _run_alu(Instruction(op=op, rd=3, ra=0, rb=2),
                        {2: v}) == expected, (op, v)
        expected = EXPECTED_ALU[op](v, 0)
        assert _ALU_FUNCS[op](v, 0) == expected, (op, v)
        assert _run_alu(Instruction(op=op, rd=3, ra=1, rb=0),
                        {1: v}) == expected, (op, v)
        # rd = ra with rb = r0: a copy to itself, when it folds to one.
        assert _run_alu(Instruction(op=op, rd=3, ra=3, rb=0),
                        {3: v}) == expected, (op, v)
    assert _run_alu(Instruction(op=op, rd=3, ra=0, rb=0), {3: 7}) == (
        EXPECTED_ALU[op](0, 0))


@pytest.mark.parametrize("op", IMM_OPS)
def test_alu_folds_immediates(op):
    """An immediate with r0, or with a register, folds to a literal, a
    copy, or a literal shift amount."""
    for imm in FOLD_IMMS:
        expected = EXPECTED_ALU[op](0, imm)
        assert _ALU_FUNCS[op](0, imm) == expected, (op, imm)
        assert _run_alu(Instruction(op=op + "i", rd=3, ra=0, imm=imm),
                        {3: 7}) == expected, (op, imm)
        for a in EDGE:
            assert _alu_imm(op, a, imm) == EXPECTED_ALU[op](a, imm), (
                op, a, imm)
            assert _run_alu(Instruction(op=op + "i", rd=3, ra=3, imm=imm),
                            {3: a}) == EXPECTED_ALU[op](a, imm), (op, a, imm)


@pytest.mark.parametrize("op", ALU_OPS)
def test_alu_callables_mask_wide_operands(op):
    """The reference's callables mask their operands themselves, so they
    do not rely on the 32-bit invariant the generated code relies on."""
    for a in EDGE:
        for b in EDGE:
            expected = EXPECTED_ALU[op](a, b)
            for wide_a, wide_b in ((a + 2**32, b), (a, b + 5 * 2**32),
                                   (a - 2**32, b - 2**40)):
                assert _ALU_FUNCS[op](wide_a, wide_b) == expected, (
                    op, wide_a, wide_b)


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from(ALU_OPS), a=WORDS, b=WORDS)
def test_alu_agrees_on_drawn_words(op, a, b):
    expected = EXPECTED_ALU[op](a, b)
    assert _ALU_FUNCS[op](a, b) == expected
    assert _alu_reg(op, a, b) == expected
    if op in IMM_OPS:
        assert _alu_imm(op, a, b) == expected


@settings(max_examples=100, deadline=None)
@given(op=st.sampled_from(BRANCH_OPS), v=WORDS)
def test_branch_agrees_on_drawn_words(op, v):
    expected = EXPECTED_BRANCH[op](_signed(v))
    assert _BRANCH_TESTS[op](_signed(v)) == expected
    assert _branch_taken(op, v) == expected


def test_r0_reads_zero_and_discards_writes():
    for tail, fuel in (("halt", 10), ("br", 2)):
        region, tags = _compiled(Instruction(op="add", rd=0, ra=0, rb=1),
                                 Instruction(op=tail, imm=0))
        regs = [0] * 32
        regs[1] = 5
        _exit(region, regs, tags, fuel)
        assert regs == [0, 5] + [0] * 30


def test_generated_code_is_charged_to_the_isa_module():
    """Profilers attribute code by file name: generated regions and the
    derived callables must name ``repro/hw/isa.py``, not ``<string>``."""
    for tail in ("halt", "br"):
        region, _ = _compiled(Instruction(op="addi", rd=3, ra=1, imm=4),
                              Instruction(op=tail, imm=0))
        assert region.__code__.co_filename == isa.__file__
    assert _ALU_FUNCS["add"].__code__.co_filename == isa.__file__
    assert _BRANCH_TESTS["beqz"].__code__.co_filename == isa.__file__


#: Generated-code fragments of work the 32-bit invariant and constant
#: folding remove: an input mask before a shift or a sign flip, and an
#: addition of a run-time zero.
WASTE = ("& 0xFFFFFFFF) >>", "& 0xFFFFFFFF) ^ 0x80000000", "(0 + ",
         "+ 0) & 0xFFFFFFFF")


#: The loop of each asmlib routine that loads or stores a DDR word, and
#: the statements that play its accesses in place.
ACCESS_LOOPS = {
    "memcpy_words": ("memcpy_loop", ["r3 = w.get((r8 - 1073741824) >> 2, 0)",
                                     "w[(r9 - 1073741824) >> 2] = r3"]),
    "array_sum": ("array_sum_loop", ["r4 = w.get((r8 - 1073741824) >> 2, 0)"]),
}


def _arm(body, pc):
    """The lines of the arm of ``pc`` in a looping region's body."""
    start = body.index(f"    if pc == {pc}:") + 1
    end = next(i for i in range(start, len(body))
               if body[i].startswith("    el"))
    return body[start:end]


@pytest.mark.parametrize("kernel", sorted(KERNEL_DRIVERS))
def test_kernel_regions_carry_no_waste(kernel, region_sources):
    """Every region of every asmlib kernel program, compiled afresh, is
    free of the fragments above.  The divide loop of ``isqrt32`` runs as
    an inner loop of the first arm of the region that claims it, and
    computes ``r9 - r3`` once per pass: its ``sub`` copies the ``cmp``
    result.  The copy loop of ``memcpy_words`` and the sum loop of
    ``array_sum`` run as inner loops that play their DDR accesses."""
    program = link(KERNEL_DRIVERS[kernel].format(iters=3), [kernel])
    icache = DirectMappedICache(0)
    regions = _CompiledRegions(program, _decode_program(program, icache),
                               MEMORY)
    for pc in range(len(program)):
        if regions._starts_block(pc) and regions.entries[pc] is None:
            regions.entry(pc)
    assert region_sources
    for body in region_sources.values():
        for line in body:
            assert not any(waste in line for waste in WASTE), line
    if kernel == "isqrt32":
        div = (program.symbols["isqrt_div"] - program.base) // 4
        body = region_sources[regions.entries[div].__name__]
        arm = body.index(f"    if pc == {div}:")
        assert body[arm + 2].startswith("        while left >= ")
        code = _arm(body, div)
        assert sum(line.count("(r9 - r3)") for line in code) == 1
        assert "            r9 = r8" in code
    if kernel in ACCESS_LOOPS:
        label, plays = ACCESS_LOOPS[kernel]
        loop = (program.symbols[label] - program.base) // 4
        body = region_sources[regions.entries[loop].__name__]
        code = _arm(body, loop)
        assert code[1].startswith("        while left >= ")
        for statement in plays:
            assert "            " + statement in code
