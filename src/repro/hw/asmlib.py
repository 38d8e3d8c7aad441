"""A small library of reusable assembly routines.

Calling convention (MicroBlaze-flavoured):

- ``brl r15, <routine>`` calls; routines return with ``jr r15``
  (leaf routines only -- there is no stack discipline here);
- arguments in r5..r7, result in r3;
- r3..r10 are caller-saved scratch.

:func:`link` concatenates a main program with the routines it names,
so small assembly applications can be composed without a real linker.

Routine sources carry ``#@`` contract annotations (parsed by
:mod:`repro.lint.absint`, invisible to the assembler): ``#@ param rN in
LO..HI`` bounds an argument register for standalone verification, and a
trailing ``#@ bound=N`` on a loop-header label asserts its maximum trip
count.  The absint audit cross-checks every bound against the inferred
trip counts and the executor's measured iteration counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List

if TYPE_CHECKING:
    from repro.hw.isa import Program

#: r5 = src byte address, r6 = dst byte address, r7 = word count.
MEMCPY_WORDS = """
#@ param r5 in 0x40000000..0x40FFFF00
#@ param r6 in 0x40000000..0x40FFFF00
#@ param r7 in 0..64
memcpy_words:
    beqz r7, memcpy_done
    addi r8, r5, 0
    addi r9, r6, 0
    addi r10, r7, 0
memcpy_loop:            #@ bound=64
    lwi  r3, r8, 0
    swi  r3, r9, 0
    addi r8, r8, 4
    addi r9, r9, 4
    addi r10, r10, -1
    bnez r10, memcpy_loop
memcpy_done:
    jr   r15
"""

#: r5 = array byte address, r6 = word count; r3 = sum (mod 2^32).
ARRAY_SUM = """
#@ param r5 in 0x40000000..0x40FFFF00
#@ param r6 in 0..64
array_sum:
    addi r3, r0, 0
    beqz r6, array_sum_done
    addi r8, r5, 0
    addi r9, r6, 0
array_sum_loop:         #@ bound=64
    lwi  r4, r8, 0
    add  r3, r3, r4
    addi r8, r8, 4
    addi r9, r9, -1
    bnez r9, array_sum_loop
array_sum_done:
    jr   r15
"""

#: r5 = value; r3 = population count (SWAR, branch-free).
POPCOUNT32 = """
popcount32:
    srli r4, r5, 1
    andi r4, r4, 0x55555555
    sub  r3, r5, r4
    andi r4, r3, 0x33333333
    srli r3, r3, 2
    andi r3, r3, 0x33333333
    add  r3, r4, r3
    srli r4, r3, 4
    add  r3, r3, r4
    andi r3, r3, 0x0F0F0F0F
    muli r3, r3, 0x01010101
    srli r3, r3, 24
    jr   r15
"""

#: r5 = value, r6 = current crc; r3 = updated crc (bitwise CRC-32/LSB,
#: polynomial 0xEDB88320, one 32-bit word folded in).
CRC32_WORD = """
crc32_word:
    xor  r3, r6, r5
    addi r9, r0, 32
crc32_bit:              #@ bound=32
    andi r4, r3, 1
    srli r3, r3, 1
    beqz r4, crc32_noxor
    xori r3, r3, 0xEDB88320
crc32_noxor:
    addi r9, r9, -1
    bnez r9, crc32_bit
    jr   r15
"""

#: r5 = value (unsigned); r3 = integer square root (Newton).
ISQRT32 = """
isqrt32:
    addi r3, r5, 0
    addi r4, r5, 1
    srli r4, r4, 1
isqrt_loop:             #@ bound=64
    cmp  r8, r4, r3          # r3 - r4 ; loop while y < x
    blez r8, isqrt_done
    addi r3, r4, 0
    addi r9, r5, 0           # dividend
    addi r10, r0, 0          # quotient
isqrt_div:              #@ bound=65537
    cmp  r8, r3, r9          # r9 - r3
    bltz r8, isqrt_divdone
    sub  r9, r9, r3
    addi r10, r10, 1
    br   isqrt_div
isqrt_divdone:
    add  r4, r3, r10
    srli r4, r4, 1
    br   isqrt_loop
isqrt_done:
    jr   r15
"""

ROUTINES: Dict[str, str] = {
    "memcpy_words": MEMCPY_WORDS,
    "array_sum": ARRAY_SUM,
    "popcount32": POPCOUNT32,
    "crc32_word": CRC32_WORD,
    "isqrt32": ISQRT32,
}


def link_source(main_source: str, routines: Iterable[str]) -> str:
    """Combined source text: the main program then the named routines.

    Callers that need a ``.data`` section must place it *after* the
    routines (the routines do not re-open ``.text``), which is why this
    textual form exists alongside :func:`link`.
    """
    parts: List[str] = [main_source]
    seen = set()
    for name in routines:
        if name in seen:
            continue
        seen.add(name)
        try:
            parts.append(ROUTINES[name])
        except KeyError:
            raise KeyError(
                f"unknown routine {name!r}; available: {sorted(ROUTINES)}"
            ) from None
    return "\n".join(parts)


def link(main_source: str, routines: Iterable[str], text_base: int = 0x4000_0000) -> Program:
    """Assemble a main program followed by the named library routines.

    The main program must end in ``halt`` on every path; routines are
    appended after it so fall-through cannot reach them.
    """
    from repro.hw.assembler import assemble

    return assemble(link_source(main_source, routines), text_base=text_base)
