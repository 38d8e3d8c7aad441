"""Cross-validation: MiBench kernels in assembly vs Python oracles.

The bitcount SWAR counter and the integer-sqrt Newton iteration are
small enough to write in the MicroBlaze-subset ISA; running them on
the instruction-accurate substrate and comparing against
``bin(v).count("1")`` and :func:`math.isqrt` checks the assembler,
the executor and the data path end to end.
"""

import math

import pytest

from repro.hw.assembler import assemble
from repro.hw.isa import ISAExecutor
from repro.hw.soc import SoC, SoCConfig

# SWAR population count (bitcount counter 5) of the word at 'input'.
POPCOUNT = """
.data 0x40010000
input:  .word 0
output: .word 0
.text 0x40000000
    lwi  r3, r0, input
    # v = v - ((v >> 1) & 0x55555555)
    srli r4, r3, 1
    andi r4, r4, 0x55555555
    sub  r3, r3, r4
    # v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    andi r5, r3, 0x33333333
    srli r6, r3, 2
    andi r6, r6, 0x33333333
    add  r3, r5, r6
    # v = (v + (v >> 4)) & 0x0F0F0F0F
    srli r7, r3, 4
    add  r3, r3, r7
    andi r3, r3, 0x0F0F0F0F
    # (v * 0x01010101) >> 24
    muli r3, r3, 0x01010101
    srli r3, r3, 24
    swi  r3, r0, output
    halt
"""

# Newton integer sqrt of the word at 'input'.
ISQRT = """
.data 0x40010000
input:  .word 0
output: .word 0
.text 0x40000000
    lwi  r3, r0, input      # value
    addi r4, r3, 0          # x = value
    addi r5, r3, 1
    srli r5, r5, 1          # y = (x + 1) / 2
loop:
    cmp  r6, r5, r4         # r6 = x - y ; loop while y < x -> x - y > 0
    blez r6, done
    addi r4, r5, 0          # x = y
    # y = (x + value/x) / 2 -- integer divide by repeated subtraction
    addi r7, r3, 0          # dividend = value
    addi r8, r0, 0          # quotient
div:
    cmp  r9, r4, r7         # r7 - r4
    bltz r9, divdone        # dividend < x
    sub  r7, r7, r4
    addi r8, r8, 1
    br   div
divdone:
    add  r5, r4, r8
    srli r5, r5, 1
    br   loop
done:
    swi  r4, r0, output
    halt
"""


def run_with_input(source, value, max_instructions=2_000_000):
    soc = SoC(SoCConfig(n_cpus=1))
    program = assemble(source)
    program.data[0x40010000] = value & 0xFFFFFFFF
    executor = ISAExecutor(soc.core(0), program)
    soc.sim.process(executor.run(max_instructions))
    soc.sim.run()
    return soc.ddr.read_word(0x40010004), executor


@pytest.mark.parametrize(
    "value",
    [0, 1, 0xFFFFFFFF, 0x80000000, 0x12345678, 0xDEADBEEF, 0x55555555, 7],
)
def test_asm_popcount_matches_python(value):
    asm_result, _ = run_with_input(POPCOUNT, value)
    assert asm_result == bin(value).count("1")


@pytest.mark.parametrize("value", [0, 1, 2, 3, 4, 100, 10_000, 65_535, 123_456])
def test_asm_isqrt_matches_python(value):
    asm_result, _ = run_with_input(ISQRT, value)
    assert asm_result == math.isqrt(value)


@pytest.mark.parametrize("bit", [0, 1, 7, 8, 15, 16, 24, 31])
def test_asm_popcount_single_bit_and_complement(bit):
    one, _ = run_with_input(POPCOUNT, 1 << bit)
    assert one == 1
    rest, _ = run_with_input(POPCOUNT, ~(1 << bit))
    assert rest == 31


@pytest.mark.parametrize("root", [2, 17, 100, 255])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_asm_isqrt_exact_squares_and_neighbours(root, offset):
    value = root * root + offset
    asm_result, _ = run_with_input(ISQRT, value)
    assert asm_result == (root - 1 if offset < 0 else root)


def test_popcount_cycle_cost_is_small():
    """The SWAR counter is branch-free: tens of cycles, not hundreds."""
    _, executor = run_with_input(POPCOUNT, 0xABCDEF01)
    assert executor.state.instructions_retired < 20
    assert executor.cycles < 150  # includes cold I-cache misses
