"""A MicroBlaze-subset instruction set and cycle-counting executor.

The scheduling experiments use profile-driven execution, but the
substrate itself is instruction-accurate for small programs: this
module defines a 32-register RISC subset close to the MicroBlaze ISA
(3-operand ALU ops, immediate forms, word loads/stores, compare and
branch, unconditional branch, halt) and an executor that runs a
program on a :class:`~repro.hw.microblaze.MicroBlaze`, paying

- 1 cycle per issued instruction (the MicroBlaze 3-stage pipeline
  approximates CPI 1 for ALU work),
- a taken-branch penalty of 2 extra cycles (pipeline flush),
- instruction-cache lookup per fetch: hits are covered by the base
  cycle, misses refill a line from DDR over the arbitrated bus,
- data access time by region: local BRAM 1 cycle, DDR over the bus.

Two interpreters produce that timing model:

- ``"block"`` (the default): a compiled-region interpreter.  At load
  the program is decoded once into flat per-pc tuples (opcode kind,
  bound ALU/branch callable, register indices, cache line index/tag).
  A *block* is a straight-line run of ALU, ALU-immediate, nop and word
  load and store instructions, up to and including one branch, ``br``,
  ``brl`` or ``jr``, and the blocks reachable from an entry pc through
  static edges form a *region*: one generated Python function, compiled
  on first entry, with inline register expressions, one I-cache tag
  check per line and ``(next_pc, cycles, retired, checkpoint)`` exits.
  A region with a loop runs it in a ``while`` loop that dispatches on pc
  and keeps registers in locals, so a loop costs one call, not one per
  block (:class:`_CompiledRegions`).  Execution then *temporally
  decouples* from the event engine: regions run back to back, only
  accumulating a cycle count, and a single coalesced ``advance(n)``
  sleep is emitted at the next *interaction point* -- a data access,
  an I-cache miss refill, halt, or an execution fault.  A DDR access on
  a quiet bus that ends before anything else can run is no interaction
  point: the region plays it in place, and hands back the fault
  checkpoint just past it.
  Memory traffic, bus arbitration and trace events still happen at
  their exact per-instruction instants, so the observable schedule is
  bit-for-bit identical to the reference.  Transient faults
  (``WordStorage.flip_bit`` / ``MicroBlaze.register_upset``) landing
  inside a coalesced sleep invalidate the in-flight window: the
  executor rolls back to the window's checkpoint and replays it
  per-instruction across the fault instant.
- ``"reference"``: the original one-event-per-instruction loop,
  retained as the oracle the perf tier's ISA determinism sentinel
  replays every asmlib kernel against.  ``count_pcs=True`` forces this
  mode (per-pc execution counts are inherently per-instruction).

The ALU and branch semantics live in one table of expression templates
(``_ALU_EXPRS`` / ``_BRANCH_EXPRS``); the reference's callables and the
generated region code are both derived from it.

Used by the substrate unit tests, the MPIC/sync-engine integration
tests and the bus-contention calibration microbenchmarks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hw.memory import LocalBRAM, WordStorage
from repro.hw.microblaze import MicroBlaze
from repro.sim.events import PENDING

#: Mask for 32-bit wrap-around arithmetic.
MASK32 = 0xFFFFFFFF

#: Interpreter implementations (see the module docstring).
ISA_MODES = ("block", "reference")


def _signed(value: int) -> int:
    """Interpret a 32-bit pattern as signed."""
    value &= MASK32
    return value - (1 << 32) if value & 0x8000_0000 else value


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    op: str
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    label: Optional[str] = None  # symbolic target before linking

    def __str__(self) -> str:
        return f"{self.op} rd=r{self.rd} ra=r{self.ra} rb=r{self.rb} imm={self.imm}"


#: opcode -> (operand signature) used by the assembler and executor.
#: signatures: R=register, I=immediate, L=label.
OPCODES: Dict[str, str] = {
    "add": "RRR",
    "sub": "RRR",   # rd = ra - rb
    "rsub": "RRR",  # rd = rb - ra (MicroBlaze style)
    "mul": "RRR",
    "and": "RRR",
    "or": "RRR",
    "xor": "RRR",
    "sll": "RRR",
    "srl": "RRR",
    "sra": "RRR",
    "cmp": "RRR",   # rd = sign(rb - ra) style signed compare
    "addi": "RRI",
    "subi": "RRI",
    "muli": "RRI",
    "andi": "RRI",
    "ori": "RRI",
    "xori": "RRI",
    "slli": "RRI",
    "srli": "RRI",
    "srai": "RRI",
    "lw": "RRR",    # rd = mem[ra + rb]
    "lwi": "RRI",   # rd = mem[ra + imm]
    "sw": "RRR",    # mem[ra + rb] = rd
    "swi": "RRI",   # mem[ra + imm] = rd
    "beqz": "RL",   # branch if rd == 0
    "bnez": "RL",
    "bltz": "RL",
    "blez": "RL",
    "bgtz": "RL",
    "bgez": "RL",
    "br": "L",
    "brl": "RL",   # branch-and-link: rd = return index, jump to label
    "jr": "R",     # jump to the instruction index held in rd
    "nop": "",
    "halt": "",
}

#: Extra cycles paid when a branch is taken (pipeline refill).
BRANCH_PENALTY = 2

#: Instruction semantics: one Python expression template per op, the
#: single source of both the callables the reference interpreter calls
#: and the code the block compiler generates.  ALU templates read the
#: operands ``{a}``/``{b}`` and shifts their amount ``{n}`` (``{b} &
#: 31``), and yield the 32-bit result.  The operands must be 32-bit
#: patterns, and are: every register write, memory word and decoded
#: immediate is masked, so the generated code never masks an input.
#: Branch templates read ``{v}``, the tested register's unsigned 32-bit
#: pattern, and yield True when the branch is taken.
_ALU_EXPRS: Dict[str, str] = {
    "add": "({a} + {b}) & 0xFFFFFFFF",
    "sub": "({a} - {b}) & 0xFFFFFFFF",
    "rsub": "({b} - {a}) & 0xFFFFFFFF",
    "mul": "({a} * {b}) & 0xFFFFFFFF",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "sll": "({a} << {n}) & 0xFFFFFFFF",
    "srl": "{a} >> {n}",
    # (x ^ 0x80000000) - 0x80000000 is the pattern x as signed.
    "sra": "((({a} ^ 0x80000000) - 0x80000000) >> {n}) & 0xFFFFFFFF",
    # signed(rb) - signed(ra): the signed and unsigned differences are
    # the same pattern modulo 2**32.
    "cmp": "({b} - {a}) & 0xFFFFFFFF",
}
_BRANCH_EXPRS: Dict[str, str] = {
    "beqz": "{v} == 0",
    "bnez": "{v} != 0",
    "bltz": "{v} >= 0x80000000",
    "blez": "not 0 < {v} < 0x80000000",
    "bgtz": "0 < {v} < 0x80000000",
    "bgez": "{v} < 0x80000000",
}

#: Ops whose result is operand ``a`` when ``b`` is 0, and ops whose
#: result is ``b`` when ``a`` is 0: a region copies the operand.
_B0_IDENTITY = frozenset({"add", "sub", "or", "xor", "sll", "srl", "sra"})
_A0_IDENTITY = frozenset({"add", "rsub", "or", "xor", "cmp"})
#: Ops that read ``b`` only as the amount ``{n}``.
_SHIFTS = frozenset({"sll", "srl", "sra"})


def _compile(source: str, mode: str):
    """Compile generated source under this module's file name, so
    profilers charge the generated code to ``repro.hw.isa``."""
    return compile(source, __file__, mode)


#: ALU semantics, one callable per op (shared by the register and
#: immediate forms; ``<op>i`` uses the same entry as ``<op>``).  They
#: mask their operands, so they hold on any integers.
_ALU_FUNCS = {
    op: eval(_compile("lambda a, b: " + expr.format(
        a="(a & 0xFFFFFFFF)", b="(b & 0xFFFFFFFF)", n="(b & 31)"), "eval"))
    for op, expr in _ALU_EXPRS.items()
}

#: Branch-taken predicates over the signed register value.
_BRANCH_TESTS = {
    op: eval(_compile(f"lambda v: {expr.format(v='(v & 0xFFFFFFFF)')}",
                      "eval"))
    for op, expr in _BRANCH_EXPRS.items()
}


class ISAError(Exception):
    """Decode or execution fault."""


@dataclass
class Program:
    """An assembled program: instructions plus initial data image.

    ``base`` is the load address of the text section (instruction i
    lives at ``base + 4*i`` for cache purposes).  ``data`` maps
    absolute word addresses to initial values.  ``lines`` (parallel to
    ``instructions``, when the assembler provides it) maps each
    instruction back to its source line for diagnostics.
    """

    instructions: List[Instruction]
    base: int = 0x4000_0000
    data: Dict[int, int] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    lines: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.instructions)

    def address_of(self, index: int) -> int:
        return self.base + 4 * index


class CPUState:
    """Architectural state of one executing program."""

    def __init__(self):
        self.regs = [0] * 32
        self.pc = 0  # instruction index, not byte address
        self.halted = False
        self.instructions_retired = 0

    def read(self, reg: int) -> int:
        if not 0 <= reg < 32:
            raise ISAError(f"register r{reg} out of range")
        return 0 if reg == 0 else self.regs[reg]

    def write(self, reg: int, value: int) -> None:
        if not 0 <= reg < 32:
            raise ISAError(f"register r{reg} out of range")
        if reg != 0:  # r0 is hardwired to zero
            self.regs[reg] = value & MASK32


# ----------------------------------------------------------------- predecode
# Opcode kinds for the decoded form.  The numeric layout is load-bearing
# for the block interpreter's dispatch: core-private kinds are below
# _K_HALT, with the control transfers _K_CBR.._K_JR among them; memory
# ops are >= _K_LW, loads are <= _K_LWI among them, and immediate forms
# are odd.
_K_ALU = 0
_K_ALUI = 1
_K_CBR = 2
_K_BR = 3
_K_BRL = 4
_K_JR = 5
_K_NOP = 6
_K_HALT = 7
_K_LW = 8
_K_LWI = 9
_K_SW = 10
_K_SWI = 11

#: Decoded instruction tuple field layout:
#: ``(kind, payload, rd, ra, b, line_index, line_tag, fetch_addr)``
#: where ``payload`` is the bound ALU callable / branch predicate,
#: ``b`` is the rb index, masked immediate, raw memory offset or
#: branch-target index depending on ``kind``, and the last three
#: fields precompute the I-cache geometry for the fetch check.


def _decode_program(program: Program, icache) -> list:
    """Decode ``program`` into flat per-pc tuples for the block loop.

    All opcode and register validation happens here, once, so neither
    interpreter pays a per-instruction ``dispatch.get`` / range check;
    unknown opcodes and out-of-range register fields raise
    :class:`ISAError` naming the offending pc.  The decoded form
    depends on the I-cache geometry (line index/tag precomputation),
    so results are cached on the program keyed by that geometry.
    """
    key = (icache.line_bytes, icache.n_lines)
    cache = program.__dict__.setdefault("_decoded_cache", {})
    decoded = cache.get(key)
    if decoded is not None:
        return decoded
    line_bytes = icache.line_bytes
    n_lines = icache.n_lines
    decoded = []
    for index, instr in enumerate(program.instructions):
        op = instr.op
        for reg in (instr.rd, instr.ra, instr.rb):
            if not 0 <= reg < 32:
                raise ISAError(
                    f"register r{reg} out of range at pc={index} ({op})"
                )
        if op in _ALU_FUNCS:
            head = (_K_ALU, _ALU_FUNCS[op], instr.rd, instr.ra, instr.rb)
        elif op.endswith("i") and op[:-1] in _ALU_FUNCS:
            head = (_K_ALUI, _ALU_FUNCS[op[:-1]], instr.rd, instr.ra,
                    instr.imm & MASK32)
        elif op in _BRANCH_TESTS:
            head = (_K_CBR, _BRANCH_TESTS[op], instr.rd, 0, instr.imm)
        elif op == "lw":
            head = (_K_LW, None, instr.rd, instr.ra, instr.rb)
        elif op == "lwi":
            head = (_K_LWI, None, instr.rd, instr.ra, instr.imm)
        elif op == "sw":
            head = (_K_SW, None, instr.rd, instr.ra, instr.rb)
        elif op == "swi":
            head = (_K_SWI, None, instr.rd, instr.ra, instr.imm)
        elif op == "br":
            head = (_K_BR, None, 0, 0, instr.imm)
        elif op == "brl":
            head = (_K_BRL, None, instr.rd, 0, instr.imm)
        elif op == "jr":
            head = (_K_JR, None, instr.rd, 0, 0)
        elif op == "nop":
            head = (_K_NOP, None, 0, 0, 0)
        elif op == "halt":
            head = (_K_HALT, None, 0, 0, 0)
        else:
            raise ISAError(f"unknown opcode {op!r} at pc={index}")
        addr = program.base + 4 * index
        line_addr = addr // line_bytes
        decoded.append(head + (line_addr % n_lines, line_addr // n_lines, addr))
    cache[key] = decoded
    return decoded


#: Longest straight-line run one block covers.  A block is the unit a
#: region checks its remaining fuel against, and a budget that ends
#: inside one runs a truncated copy, so this also bounds those copies.
_BLOCK_MAX = 64

#: Most instructions of reachable blocks one region compiles; blocks
#: past it are exits, left to the regions entered there.
_REGION_MAX = 1024

#: Most instructions one arm of a looping region chains inline through
#: fall-throughs before it dispatches to the next block instead.
_CHAIN_MAX = 64

#: Most blocks one path of a loop-free region inlines.
_NEST_MAX = 32

#: Parameters of every generated region and truncated block: the
#: register list, the I-cache tag list, the instruction budget left and
#: the pc to start at, then what a DDR access played in place needs: the
#: instant the call starts at, the cycles from then to the end of the
#: room the window found, the append of the window's request instants,
#: the DDR word store, and the trace hook (None without a recorder).
_PARAMS = "r, t, fuel, pc, at, rm, s, w, rec"


def _memory_map(core: MicroBlaze) -> Tuple[int, int, int, int, int]:
    """What generated code bakes in of a core's memory map, and so part
    of the key compiled regions are cached on: the DDR window, the bus
    latency of one DDR word, and the local window, whose accesses it
    leaves to the window loop."""
    ddr, local = core.ddr, core.local_mem
    return (ddr.base, ddr.base + ddr.size, ddr.access_latency(1),
            local.base, local.base + local.size)


def _in_list(reg: int) -> str:
    """Generated-code read of register ``reg`` from the list ``r``."""
    return f"r[{reg}]" if reg else "0"


def _to_list(reg: int, expr: str) -> str:
    """Generated-code write of ``expr`` to register ``reg`` of ``r``."""
    return f"r[{reg}] = {expr}"


class _Emitter:
    """The statements of one generated function, one op at a time, and
    what its code knows at the point reached.

    ``read``/``write`` name a register the code reads or writes, and
    ``value`` one it only saves; in a looping region (``loop``) the
    cycles and the budget left live in ``c`` and ``left``, in
    straight-line code they are literals off the call's start.
    ``known`` maps each ALU expression a register still holds to that
    register and the registers the expression reads, so an op that
    computes it again copies the register.  ``ck`` is the checkpoint of
    the last access played in place, while no register has changed
    since: an exit returns it as it is, and it is stored to ``k`` before
    the next op that is no access.
    """

    def __init__(self, regions: "_CompiledRegions", read, write, value,
                 written: List[int], loop: bool):
        self.regions = regions
        self.read = read
        self.write = write
        self.value = value
        self.loop = loop
        # A checkpoint saves the registers the function writes: the
        # others hold their values at the call for all of it.
        self.saved = repr(tuple(written)) + "".join(
            f", {value(reg)}" for reg in written)
        self.known: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        self.ck: Optional[str] = None

    def clock(self, cycles: int) -> str:
        """The cycles since the call, ``cycles`` into the stretch."""
        if self.loop:
            return f"c + {cycles}" if cycles else "c"
        return str(cycles)

    def k(self) -> str:
        """The checkpoint an exit here hands back."""
        return self.ck or "k"

    def flush(self) -> List[str]:
        """Store the checkpoint of the access just played to ``k``."""
        ck, self.ck = self.ck, None
        return [f"k = {ck}"] if ck else []

    def fork(self):
        """What the code knows here, for :meth:`join` to restore."""
        return dict(self.known), self.ck

    def join(self, state) -> None:
        self.known, self.ck = state

    def wrote(self, reg: int) -> None:
        """Forget the expressions ``reg`` held or that read it."""
        self.known = {expr: held for expr, held in self.known.items()
                      if held[0] != reg and reg not in held[1]}

    def alu(self, p: int) -> List[str]:
        """The statement of the ALU op at ``p`` (none for a nop, a
        control transfer, an r0 destination, a copy to itself or an
        expression its destination already holds).

        Constant operands fold: r0 and immediates are known, so two of
        them give a literal, an identity operand (``x + 0``, ``0 | x``,
        a shift by 0, ...) a copy of the other, and a shift by an
        immediate a literal amount.  An expression another register
        still holds is a copy of that register."""
        regions = self.regions
        kind, _, rd, ra, b = regions.decoded[p][:5]
        if kind > _K_ALUI or not rd:
            return []
        read, write = self.read, self.write
        op = regions.instructions[p].op
        if kind == _K_ALU and b:  # b is a register
            rhs = read(b)
            n = f"({rhs} & 31)"
            src = b if not ra and op in _A0_IDENTITY else None
            deps: Tuple[int, ...] = (ra, b)
        else:  # b is the immediate, or r0: 0
            if kind == _K_ALUI:
                op = op[:-1]
            if not ra:
                self.wrote(rd)
                return [write(rd, _ALU_FUNCS[op](0, b))]
            rhs = b
            n = b & 31 if op in _SHIFTS else b
            src = ra if op in _B0_IDENTITY and not n else None
            deps = (ra,)
        if src is not None:
            self.wrote(rd)
            return [] if src == rd else [write(rd, read(src))]
        expr = _ALU_EXPRS[op].format(a=read(ra), b=rhs, n=n)
        held = self.known.get(expr)
        if held is not None and held[0] == rd:
            return []
        self.wrote(rd)
        if held is not None:
            return [write(rd, self.value(held[0]))]
        if rd not in deps:
            self.known[expr] = (rd, deps)
        return [write(rd, expr)]

    def access(self, p: int, dn: int, dc: int, leave) -> List[str]:
        """The DDR load or store at ``p``, ``dn`` instructions and ``dc``
        cycles into the stretch, played in place: the statement
        ``leave(p, dn, dc)`` exits before it when its word is misaligned,
        outside DDR or local, or when it would not end before ``rm``.
        It then appends its request instant to ``s``, calls ``rec`` at
        its end instant, reads or writes its word in ``w``, and becomes
        the checkpoint."""
        regions = self.regions
        base, top, latency, local_base, local_top = regions.memory
        kind, _, rd, _, _ = regions.decoded[p][:5]
        addr, const = regions._address(p, self.read)
        lines: List[str] = []
        tests: List[str] = []
        if const is None:
            if not addr.isidentifier():
                lines.append(f"a = {addr}")
                addr = "a"
            tests += [f"{addr} & 3", f"not {base} <= {addr} < {top}"]
            if local_base < top and base < local_top:
                tests.append(f"{local_base} <= {addr} < {local_top}")
            index = f"({addr} - {base}) >> 2"
        else:  # a DDR word (_may_play)
            index = str((const - base) >> 2)
        end = dc + 1 + latency
        tests.append(f"{self.clock(end)} >= rm")
        load = kind <= _K_LWI
        lines += [
            f"if {' or '.join(tests)}: {leave(p, dn, dc)}",
            f"s(at + {self.clock(dc + 1)})",
            f"if rec is not None: rec(at + {self.clock(end)}, {addr}, "
            f"{'read' if load else 'write'!r})",
        ]
        if not load:
            lines.append(f"w[{index}] = {self.read(rd)}")
        elif rd:
            self.wrote(rd)
            lines.append(self.write(rd, f"w.get({index}, 0)"))
        fuel = f"left - {dn + 1}" if self.loop else f"fuel - {dn + 1}"
        self.ck = f"({p + 1}, {fuel}, {self.clock(end)}, {self.saved})"
        return lines


class _CompiledRegions:
    """A decoded program's code as generated functions.

    The *block* at pc ``p`` is the run of ops from ``p`` that a region
    can play (ALU, ALU-immediate, nop, and loads and stores whose
    address may be a DDR word) up to and including the first control
    transfer, stopping before halt, a load or store of a fixed address
    that is no DDR word, a branch target or a return site, and after
    :data:`_BLOCK_MAX` instructions.  The *region* entered at ``p`` is
    the set of blocks reachable from it through static edges: a
    conditional branch's target and fall-through, a ``br``'s target, a
    ``brl``'s target and its return site, and the next block after a
    run that the size cap ended.  Its function ``region(r, t, fuel,
    pc, at, rm, s, w, rec)`` (:data:`_PARAMS`) runs those blocks against
    the register list ``r`` from ``pc`` on and returns ``(next_pc,
    cycles, retired, k)`` exactly where a chain of blocks run one at a
    time would stop:

    - before halt or a fixed-address op outside DDR, and at a ``jr`` or
      branch whose target is outside the region;
    - before a load or store that cannot play in place: its word is
      misaligned, outside DDR or local, or the access would not end
      strictly before ``rm`` cycles from the call;
    - at an I-cache tag miss (the tag list ``t`` is checked once per
      line), with the retired prefix, so a miss at the entry line
      returns ``(pc, 0, 0, None)``;
    - before a block that does not fit the remaining ``fuel``.  The
      caller makes sure the entry block fits, and at the pc returned
      runs the block cut to the fuel that is left (:meth:`truncated`).

    A DDR access plays as the window loop would play it in place
    (:meth:`_Emitter.access`), and ``k`` is the fault checkpoint just
    past the last one: ``(pc, fuel, cycles, regs, *values)``, the budget
    left and the cycles since the call at that instant, and the values
    then of the registers ``regs`` the function writes; None when it
    played none.

    A region without a cycle is one nest of straight-line code that
    inlines every successor and works on ``r`` in place.  A region with
    a cycle is a loop that dispatches on ``pc`` to *arms*.  The entry,
    every branch target, every return site and every line a block
    enters midway heads an arm, and an arm chains its fall-through
    successors inline; an arm that transfers back to its own head runs
    as an inner loop.  The loop keeps the registers the region reads in
    locals and writes the ones it also changes back at its one exit.
    Every arm is an entry of the same function, so a ``jr`` to a return
    site stays inside it.  Functions are compiled on first entry.

    The code trusts that registers and immediates hold 32-bit patterns,
    so it masks no operand, and it folds the constant operands, r0 and
    immediates (:meth:`_Emitter.alu`).  The memory map it bakes in is
    part of the key it is cached on (:func:`_compile_regions`).
    """

    def __init__(self, program: Program, decoded: list, memory: tuple):
        self.instructions = program.instructions
        self.decoded = decoded
        self.memory = memory
        n = len(decoded)
        #: entry pc -> compiled region (None: not compiled, or an op
        #: that no region covers).
        self.entries: List = [None] * n
        #: pc -> whether a block can start there.
        self.inline = [kind < _K_HALT or kind >= _K_LW and self._may_play(pc)
                       for pc, kind in enumerate(op[0] for op in decoded)]
        #: pc -> instructions the block at pc retires when run to its end.
        self.sizes = [0] * n
        # Blocks end before the pcs a taken transfer reaches statically
        # (branch targets and return sites), so one region compiles no
        # code twice, and at the end of the program.
        targets = [False] * n + [True]
        for pc, (kind, _, _, _, b) in enumerate(op[:5] for op in decoded):
            if _K_CBR <= kind <= _K_BRL and 0 <= b < n:
                targets[b] = True
            if kind == _K_BRL:
                targets[pc + 1] = True
        for pc in range(n - 1, -1, -1):
            if not self.inline[pc]:
                continue
            kind = decoded[pc][0]
            if _K_CBR <= kind <= _K_JR or targets[pc + 1]:
                self.sizes[pc] = 1
            else:
                self.sizes[pc] = min(_BLOCK_MAX, 1 + self.sizes[pc + 1])
        self.longest = max(self.sizes, default=0)
        self._truncated: Dict[Tuple[int, int], object] = {}

    def entry(self, pc: int):
        """The region entered at ``pc``, compiling it on first use."""
        region = self.entries[pc]
        if region is None:
            region = self._region(pc)
        return region

    def truncated(self, pc: int, limit: int):
        """The block at ``pc`` cut after ``limit`` instructions (the
        instruction budget ends inside it), with a region's parameters
        and exits."""
        block = self._truncated.get((pc, limit))
        if block is None:
            pcs = range(pc, pc + limit)
            em = _Emitter(self, _in_list, _to_list, _in_list,
                          self._written(pcs), loop=False)

            def leave(p: int, dn: int, dc: int) -> str:
                return f"return ({p}, {dc}, {dn}, {em.k()})"

            body = ["k = None"]
            dn = dc = 0
            line = None
            for p in pcs:
                index, tag = self.decoded[p][5:7]
                if (index, tag) != line:
                    line = (index, tag)
                    body.append(f"if t[{index}] != {tag}: "
                                + leave(p, dn, dc))
                code, cost = self._op(em, p, dn, dc, leave)
                body += code
                dn += 1
                dc += cost
            body.append(leave(pc + limit, dn, dc))
            block = self._truncated[pc, limit] = _define(
                f"block_{pc}_{limit}", _PARAMS, body)
        return block

    # -------------------------------------------------------------- the graph
    def _edges(self, q: int) -> Tuple[List[int], Optional[int]]:
        """The static successors of the block at ``q``: the pcs a taken
        transfer reaches (a ``brl``'s return site among them), and the
        pc it falls through to, if it can."""
        end = q + self.sizes[q] - 1
        kind, _, _, _, b = self.decoded[end][:5]
        if kind == _K_CBR:
            return [b], end + 1
        if kind == _K_BR:
            return [b], None
        if kind == _K_BRL:
            return [b, end + 1], None
        if kind == _K_JR:
            return [], None
        return [], end + 1

    def _successors(self, q: int) -> List[int]:
        taken, fall = self._edges(q)
        return taken if fall is None else taken + [fall]

    def _starts_block(self, pc: int) -> bool:
        """True when a block starts at ``pc``: it is in the program and
        a region can play its op."""
        return 0 <= pc < len(self.decoded) and self.inline[pc]

    def _reach(self, root: int) -> List[int]:
        """The blocks of the region entered at ``root``, in visit order."""
        nodes = [root]
        seen = {root}
        total = self.sizes[root]
        for q in nodes:
            for s in self._successors(q):
                if (s not in seen and self._starts_block(s)
                        and total + self.sizes[s] <= _REGION_MAX):
                    seen.add(s)
                    nodes.append(s)
                    total += self.sizes[s]
        return nodes

    def _pcs(self, nodes: List[int]) -> List[int]:
        return [p for q in nodes for p in range(q, q + self.sizes[q])]

    def _effects(self, pcs) -> Tuple[set, set]:
        """The registers the ops at ``pcs`` read and write, r0 among
        them."""
        reads: set = set()
        writes: set = set()
        for p in pcs:
            kind, _, rd, ra, b = self.decoded[p][:5]
            if kind <= _K_ALUI:
                writes.add(rd)
                reads.update((ra, b) if kind == _K_ALU else (ra,))
            elif kind == _K_CBR or kind == _K_JR:
                reads.add(rd)
            elif kind == _K_BRL:
                writes.add(rd)
            elif kind >= _K_LW:
                reads.update((ra,) if kind & 1 else (ra, b))
                (writes if kind <= _K_LWI else reads).add(rd)
        return reads, writes

    def _written(self, pcs) -> List[int]:
        """The registers the ops at ``pcs`` may change, in order."""
        return sorted(self._effects(pcs)[1] - {0})

    def _cycles(self, nodes: List[int], inside: set) -> Dict[int, float]:
        """The shortest cycle through each block of a region, in
        instructions (inf: none).  Edges follow a call through its
        routine: a ``brl`` leads to its target only, and a ``jr`` to
        every return site of the region."""
        sizes = self.sizes
        tails = {q: self.decoded[q + sizes[q] - 1][0] for q in nodes}
        returns = [q + sizes[q] for q in nodes if tails[q] == _K_BRL]
        succ = {}
        for q in nodes:
            if tails[q] == _K_JR:
                flow = returns
            else:
                flow = self._successors(q)[:1 if tails[q] == _K_BRL else 2]
            succ[q] = [s for s in flow if s in inside]

        def cycle(node: int) -> float:
            heap = [(sizes[node], s) for s in succ[node]]
            done = set()
            while heap:
                length, q = heapq.heappop(heap)
                if q == node:
                    return length
                if q not in done:
                    done.add(q)
                    for s in succ[q]:
                        heapq.heappush(heap, (length + sizes[q], s))
            return float("inf")

        return {q: cycle(q) for q in nodes}

    # ------------------------------------------------------------ generation
    def _address(self, p: int, read) -> Tuple[str, Optional[int]]:
        """The address expression of the load or store at ``p``, and
        its value when it is a constant."""
        kind, _, _, ra, b = self.decoded[p][:5]
        if kind & 1:  # an immediate offset
            offset = b & MASK32
            if not ra:
                return str(offset), offset
            if not offset:
                return read(ra), None
            return f"({read(ra)} + {offset}) & 0xFFFFFFFF", None
        if not b:
            return (read(ra), None) if ra else ("0", 0)
        if not ra:
            return read(b), None
        return f"({read(ra)} + {read(b)}) & 0xFFFFFFFF", None

    def _may_play(self, pc: int) -> bool:
        """True unless the load or store at ``pc`` has a fixed address
        that no access played in place reaches."""
        addr = self._address(pc, _in_list)[1]
        if addr is None:
            return True
        base, top, _, local_base, local_top = self.memory
        return (not addr & 3 and base <= addr < top
                and not local_base <= addr < local_top)

    def _op(self, em: _Emitter, p: int, dn: int, dc: int,
            leave) -> Tuple[List[str], int]:
        """The statements of the op at ``p``, ``dn`` instructions and
        ``dc`` cycles into the stretch, and its cycles before a taken
        branch's penalty."""
        if self.decoded[p][0] >= _K_LW:
            return em.access(p, dn, dc, leave), 1 + self.memory[2]
        return em.flush() + em.alu(p), 1

    def _test(self, p: int, read) -> str:
        """The taken condition of the conditional branch at ``p``."""
        return _BRANCH_EXPRS[self.instructions[p].op].format(
            v=read(self.decoded[p][2]))

    def _region(self, root: int):
        """Compile the region entered at ``root``; register it at every
        arm no other region claimed first."""
        nodes = self._reach(root)
        inside = set(nodes)
        cycles = self._cycles(nodes, inside)
        if min(cycles.values()) < float("inf"):
            arms, body = self._looping(root, nodes, inside, cycles)
        else:
            arms, body = [root], self._flat(root, nodes, inside)
        region = _define(f"region_{root}", _PARAMS, body)
        for arm in arms:
            if self.entries[arm] is None:
                self.entries[arm] = region
        return region

    def _flat(self, root: int, nodes: List[int], inside: set) -> List[str]:
        """Body of a loop-free region: every successor inlined, the
        taken side of a branch nested under its test."""
        em = _Emitter(self, _in_list, _to_list, _in_list,
                      self._written(self._pcs(nodes)), loop=False)
        body: List[str] = ["k = None"]
        budget = _REGION_MAX

        def leave(p: int, dn: int, dc: int) -> str:
            return f"return ({p}, {dc}, {dn}, {em.k()})"

        def goto(s: int, dn: int, dc: int, line, pad: str, depth: int):
            if s in inside and self.sizes[s] <= budget and depth < _NEST_MAX:
                block(s, dn, dc, line, pad, depth + 1)
            else:
                body.append(pad + leave(s, dn, dc))

        def block(q: int, dn: int, dc: int, line, pad: str, depth: int):
            nonlocal budget
            budget -= self.sizes[q]
            if dn:
                body.append(f"{pad}if fuel < {dn + self.sizes[q]}: "
                            + leave(q, dn, dc))
            for p in range(q, q + self.sizes[q]):
                kind, _, rd, _, b, index, tag, _ = self.decoded[p]
                if (index, tag) != line:
                    line = (index, tag)
                    body.append(f"{pad}if t[{index}] != {tag}: "
                                + leave(p, dn, dc))
                code, cost = self._op(em, p, dn, dc, leave)
                body.extend(pad + s for s in code)
                dn += 1
                dc += cost
            if kind == _K_JR:
                body.append(f"{pad}return ({_in_list(rd)}, "
                            f"{dc + BRANCH_PENALTY}, {dn}, {em.k()})")
                return
            if kind == _K_CBR:
                body.append(f"{pad}if {self._test(p, _in_list)}:")
                state = em.fork()
                goto(b, dn, dc + BRANCH_PENALTY, line, pad + "    ", depth)
                em.join(state)
            elif kind == _K_BR or kind == _K_BRL:
                if kind == _K_BRL and rd:
                    em.wrote(rd)
                    body.append(f"{pad}{_to_list(rd, p + 1)}")
                goto(b, dn, dc + BRANCH_PENALTY, line, pad, depth)
                return
            goto(p + 1, dn, dc, line, pad, depth)

        block(root, 0, 0, None, "", 0)
        return body

    def _looping(self, root: int, nodes: List[int], inside: set,
                 cycles: Dict[int, float]) -> Tuple[List[int], List[str]]:
        """Arms and body of a region with a cycle: a dispatch loop whose
        arms are tested inner loops first, in order of the shortest
        cycle through them."""
        decoded = self.decoded
        sizes = self.sizes
        reads, writes = self._effects(self._pcs(nodes))
        held = sorted(reads - {0})
        spilled = [reg for reg in held if reg in writes]

        def read(reg: int) -> str:
            return f"r{reg}" if reg else "0"

        def value(reg: int) -> str:
            return f"r{reg}" if reg in reads else f"r[{reg}]"

        def write(reg: int, expr) -> str:
            return f"{value(reg)} = {expr}"

        em = _Emitter(self, read, write, value, sorted(writes - {0}),
                      loop=True)

        # Arms: the entry, the taken targets, and every line a block
        # enters midway, where the region resumes after a refill.
        arms = [root]
        for q in nodes:
            arms += [s for s in self._edges(q)[0]
                     if s in inside and s not in arms]
            arms += [p for p in range(q + 1, q + sizes[q])
                     if decoded[p][5:7] != decoded[p - 1][5:7]
                     and p not in arms]
        heads = set(arms)

        def leave(arm: int, p: int, dn: int, dc: int) -> str:
            """Exit the region at ``p``, ``dn`` instructions and ``dc``
            cycles into the arm."""
            steps = [f"left -= {dn}"] if dn else []
            steps += [f"c += {dc}"] if dc else []
            steps += [f"pc = {p}"] if p != arm else []
            return "; ".join(steps + ["break"])

        def chain(arm: int) -> List[int]:
            """The blocks ``arm`` runs inline: it chains the fall-through
            successors that head no arm, up to :data:`_CHAIN_MAX`
            instructions."""
            blocks = [arm]
            dn = sizes[arm]
            while True:
                q = self._edges(blocks[-1])[1]
                if (q is None or q not in inside or q in heads
                        or dn + sizes[q] > _CHAIN_MAX):
                    return blocks
                blocks.append(q)
                dn += sizes[q]

        def arm_body(arm: int) -> List[str]:
            """The arm's code.  An arm whose chain transfers back to its
            own head runs as an inner loop: the back edge checks only the
            first block's fuel (no line is filled inside a region call,
            so its tag still hits), and every other exit leaves the inner
            loop and dispatches.  An exit that leaves the region there
            reaches an arm with the same pc or none: that arm's own fuel,
            tag or access check leaves it at once, with nothing retired.
            The inner loop's own head is that arm: when its access finds
            no room, the region leaves at once after the loop."""
            blocks = chain(arm)
            loops = any(arm in self._edges(q)[0] for q in blocks)
            # The statement that dispatches on pc; from an inner loop,
            # leaving it does.
            dispatch = "break" if loops else "continue"
            em.known, em.ck = {}, None

            def exit_at(p: int, dn: int, dc: int) -> str:
                """Exit at ``p``, first storing the checkpoint of an
                access just played."""
                ck = [f"k = {em.ck}"] if em.ck else []
                return "; ".join(ck + [leave(arm, p, dn, dc)])

            def goto(s: int, dn: int, dc: int) -> str:
                """Transfer to ``s``: run the arm again, dispatch to the
                arm of ``s``, or leave."""
                steps = f"left -= {dn}; c += {dc}; "
                if loops and s == arm:
                    return steps + "continue"
                return steps + f"pc = {s}; " + (
                    dispatch if s in heads else "break")

            lines: List[str] = []
            dn, dc, line = 0, 0, None
            for q in blocks:
                if not (loops and q == arm):
                    lines.append(f"if left < {dn + sizes[q]}: "
                                 + exit_at(q, dn, dc))
                for p in range(q, q + sizes[q]):
                    kind, _, rd, _, b, index, tag, _ = decoded[p]
                    if (index, tag) != line:
                        line = (index, tag)
                        lines.append(f"if t[{index}] != {tag}: "
                                     + exit_at(p, dn, dc))
                    code, cost = self._op(em, p, dn, dc, exit_at)
                    lines += code
                    dn += 1
                    dc += cost
                if kind == _K_JR:
                    lines.append(f"left -= {dn}; c += {dc + BRANCH_PENALTY}; "
                                 f"pc = {read(rd)}; {dispatch}")
                    break
                if kind == _K_BR or kind == _K_BRL:
                    if kind == _K_BRL and rd:
                        em.wrote(rd)
                        lines.append(write(rd, p + 1))
                    lines.append(goto(b, dn, dc + BRANCH_PENALTY))
                    break
                if kind == _K_CBR:
                    lines.append(f"if {self._test(p, read)}: "
                                 + goto(b, dn, dc + BRANCH_PENALTY))
            else:
                q = p + 1
                if q in inside and q not in heads:  # the chain was cut
                    arms.append(q)
                    heads.add(q)
                lines += em.flush()
                lines.append(goto(q, dn, dc))
            if not loops:
                return lines
            # lines[0] is the head's tag check; the loop tests its fuel.
            body = ([lines[0], f"while left >= {sizes[arm]}:"]
                    + ["    " + line for line in lines[1:]]
                    + ["else:", "    break"])
            if decoded[arm][0] >= _K_LW:
                body.append(f"if pc == {arm}: break")
            return body

        arm_code = {}
        for arm in arms:  # grows as long chains are cut into new arms
            arm_code[arm] = arm_body(arm)
        body = [f"r{reg} = r[{reg}]" for reg in held]
        body += ["k = None", "left = fuel", "c = 0", "while True:"]
        order = sorted(arms, key=lambda arm: (
            cycles.get(arm, float("inf")), arm))
        for index, arm in enumerate(order):
            body.append(f"    {'el' if index else ''}if pc == {arm}:")
            body += ["        " + line for line in arm_code[arm]]
        body += ["    else:", "        break"]
        body += [f"r[{reg}] = r{reg}" for reg in spilled]
        body.append("return (pc, c, fuel - left, k)")
        return arms, body


def _define(name: str, params: str, body: List[str]):
    """Compile generated function ``name`` from its body lines."""
    source = f"def {name}({params}):\n" + "".join(
        f"    {line}\n" for line in body)
    namespace: dict = {}
    exec(_compile(source, "exec"), namespace)
    return namespace[name]


def _compile_regions(program: Program, icache,
                     memory: tuple) -> _CompiledRegions:
    """The program's compiled regions, cached on the program next to
    the decoded form, keyed by the I-cache geometry and the memory map
    (:func:`_memory_map`) their code bakes in."""
    key = (icache.line_bytes, icache.n_lines) + memory
    cache = program.__dict__.setdefault("_region_cache", {})
    regions = cache.get(key)
    if regions is None:
        regions = cache[key] = _CompiledRegions(
            program, _decode_program(program, icache), memory)
    return regions

# Window-terminating interaction points for the block interpreter.
_S_FILL = 1    # instruction fetch missed: refill a line over the bus
_S_LOCAL = 2   # local BRAM data access
_S_DDR = 3     # shared DDR data access (arbitrated bus transaction)
_S_HALT = 4
_S_ERROR = 5


class ISAExecutor:
    """Runs a :class:`Program` on a core, cycle-accounted.

    Parameters
    ----------
    core:
        The MicroBlaze whose cache/bus/local memory are used.
    program:
        Assembled program.  Data words are loaded into DDR (or the
        region owning their address) before execution.
    trace:
        Optional :class:`~repro.trace.recorder.TraceRecorder`; when
        given, every *shared* (non-local) data access is recorded as an
        ``access`` event so the race checker in
        :mod:`repro.lint.concurrency` can analyse the run.
    count_pcs:
        When True, ``pc_counts`` maps each executed instruction index
        to its execution count, so static loop bounds
        (:mod:`repro.lint.absint`) can be cross-checked against actual
        iteration counts.  Forces ``mode="reference"`` (per-pc counts
        are per-instruction accounting by definition).
    mode:
        ``"block"`` (the default) or ``"reference"`` (see the module
        docstring).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; block-mode
        runs record ``isa_windows_total`` / ``isa_window_instructions_total``
        / ``isa_block_replays_total`` counters labelled by cpu.
    """

    def __init__(
        self,
        core: MicroBlaze,
        program: Program,
        trace=None,
        count_pcs: bool = False,
        mode: str = "block",
        metrics=None,
    ):
        self.core = core
        self.program = program
        self.trace = trace
        self.state = CPUState()
        self.cycles = 0
        self.icache_misses = 0
        self.data_accesses = 0
        self.pc_counts: Optional[Dict[int, int]] = {} if count_pcs else None
        if mode not in ISA_MODES:
            raise ValueError(
                f"unknown ISA mode {mode!r}; expected one of {ISA_MODES}")
        if count_pcs:
            mode = "reference"
        self.mode = mode
        self.metrics = metrics
        # Decode (and validate) once for both interpreters.
        self._decoded = _decode_program(program, core.icache)
        self._regions = (_compile_regions(program, core.icache,
                                          _memory_map(core))
                         if mode == "block" else None)
        # Block-interpreter observability: executed windows, the
        # instructions they coalesced, and fault-invalidated replays.
        self.windows = 0
        self.window_instructions = 0
        self.replays = 0
        self._sleep = None
        self._window_broken = False
        for addr, value in program.data.items():
            self._region_for(addr).write_word(addr, value)

    # -------------------------------------------------------------- memory map
    def _region_for(self, addr: int) -> WordStorage:
        if self.core.local_mem.contains(addr):
            return self.core.local_mem
        if self.core.ddr.contains(addr):
            return self.core.ddr
        raise ISAError(f"address {addr:#x} maps to no memory region")

    def _data_access(self, addr: int, value: Optional[int] = None):
        """Generator: load (value None) or store through the right port."""
        region = self._region_for(addr)
        self.data_accesses += 1
        if isinstance(region, LocalBRAM):
            yield self.core.sim.timeout(region.access_latency(1))
            self.cycles += region.access_latency(1)
            if value is None:
                return region.read_word(addr)
            region.write_word(addr, value)
            return None
        # Shared DDR: arbitrated bus transaction.
        start = self.core.sim.now
        yield from self.core.bus.transfer(self.core.cpu_id, region, words=1)
        self.cycles += self.core.sim.now - start
        if self.trace is not None:
            self.trace.record(
                self.core.sim.now,
                "access",
                cpu=self.core.cpu_id,
                info=f"addr={addr:#x} op={'read' if value is None else 'write'}",
            )
        if value is None:
            return region.read_word(addr)
        region.write_word(addr, value)
        return None

    def _fetch(self, index: int):
        """Generator: instruction fetch with I-cache."""
        addr = self.program.address_of(index)
        if self.core.icache.lookup(addr):
            return
        self.icache_misses += 1
        start = self.core.sim.now
        yield from self.core.bus.transfer(
            self.core.cpu_id, self.core.ddr, words=self.core.icache.line_words
        )
        self.core.icache.fill_line(addr)
        self.cycles += self.core.sim.now - start

    # ---------------------------------------------------------------- execution
    # Opcode handlers (reference interpreter).  Each returns the branch
    # target (an instruction index) for a *taken* control transfer, or
    # None to fall through to pc+1.  Memory handlers are generators and
    # are flagged as such in the dispatch table so the main loop only
    # pays generator setup for ops that actually touch the memory
    # system.
    def _exec_nop(self, state: CPUState, instr: Instruction, payload) -> Optional[int]:
        return None

    def _exec_halt(self, state: CPUState, instr: Instruction, payload) -> Optional[int]:
        state.halted = True
        return None

    def _exec_alu(self, state: CPUState, instr: Instruction, func) -> Optional[int]:
        state.write(instr.rd, func(state.read(instr.ra), state.read(instr.rb)))
        return None

    def _exec_alui(self, state: CPUState, instr: Instruction, func) -> Optional[int]:
        state.write(instr.rd, func(state.read(instr.ra), instr.imm & MASK32))
        return None

    def _exec_load(self, state: CPUState, instr: Instruction, use_imm):
        offset = instr.imm if use_imm else state.read(instr.rb)
        addr = (state.read(instr.ra) + offset) & MASK32
        value = yield from self._data_access(addr)
        state.write(instr.rd, value)
        return None

    def _exec_store(self, state: CPUState, instr: Instruction, use_imm):
        offset = instr.imm if use_imm else state.read(instr.rb)
        addr = (state.read(instr.ra) + offset) & MASK32
        yield from self._data_access(addr, value=state.read(instr.rd))
        return None

    def _exec_branch(self, state: CPUState, instr: Instruction, test) -> Optional[int]:
        return instr.imm if test(_signed(state.read(instr.rd))) else None

    def _exec_br(self, state: CPUState, instr: Instruction, payload) -> Optional[int]:
        return instr.imm

    def _exec_brl(self, state: CPUState, instr: Instruction, payload) -> Optional[int]:
        state.write(instr.rd, state.pc + 1)
        return instr.imm

    def _exec_jr(self, state: CPUState, instr: Instruction, payload) -> Optional[int]:
        return state.read(instr.rd)

    #: op -> (handler, is_generator, payload); precomputed once at
    #: import (see _build_dispatch below) instead of a per-instruction
    #: string elif chain.
    _DISPATCH: Dict[str, Tuple] = {}

    def run(self, max_instructions: int = 1_000_000):
        """Generator: execute until halt or the instruction budget ends.

        Returns the CPUState (also available as ``self.state``).
        """
        if self.mode == "reference":
            return (yield from self._run_reference(max_instructions))
        return (yield from self._run_block(max_instructions))

    # ------------------------------------------------------ reference oracle
    def _run_reference(self, max_instructions: int):
        """The per-instruction interpreter (one engine event per cycle)."""
        state = self.state
        program = self.program
        instructions = program.instructions
        dispatch = self._DISPATCH
        timeout = self.core.sim.timeout
        counts = self.pc_counts
        while not state.halted:
            if state.instructions_retired >= max_instructions:
                raise ISAError(
                    f"instruction budget {max_instructions} exhausted at pc={state.pc}"
                )
            if not 0 <= state.pc < len(instructions):
                raise ISAError(f"pc {state.pc} outside program")
            if counts is not None:
                counts[state.pc] = counts.get(state.pc, 0) + 1
            yield from self._fetch(state.pc)
            instr = instructions[state.pc]
            yield timeout(1)
            self.cycles += 1
            state.instructions_retired += 1

            # Opcodes were validated at predecode: direct index.
            handler, is_generator, payload = dispatch[instr.op]
            if is_generator:
                target = yield from handler(self, state, instr, payload)
            else:
                target = handler(self, state, instr, payload)

            if target is None:
                state.pc += 1
            else:  # taken control transfer: pipeline refill
                yield timeout(BRANCH_PENALTY)
                self.cycles += BRANCH_PENALTY
                state.pc = target
        return state

    # --------------------------------------------------- block interpreter
    def _on_fault(self, *_fault) -> None:
        """Fault listener: invalidate the in-flight coalesced block.

        Registered on the core's memories (``flip_bit``) and register
        file (``register_upset``) while a block run is live.  Waking
        the sleep early makes the executor roll back to the window's
        checkpoint and replay it per-instruction, so the fault lands
        against reference-exact architectural state.
        """
        sleep = self._sleep
        if sleep is not None and sleep._state == PENDING:
            self._window_broken = True
            sleep.succeed()

    def _run_block(self, max_instructions: int):
        """Basic-block interpreter: one coalesced sleep per window.

        A *window* is the run of instructions from one interaction point
        to the next.  The inner loop runs a window's compiled regions
        (see :class:`_CompiledRegions`) against the register list, one
        call per region, accumulating their cycle cost in ``pending``;
        the single ``advance(pending)`` sleep at the window boundary
        replaces the reference interpreter's per-instruction timeouts.
        Everything another bus master or a trace consumer could observe
        -- DDR transactions, I-cache refills, local-memory effects,
        halt, and execution faults -- happens at the same absolute
        instant the reference interpreter produces.

        A DDR access plays in place, inside the region that runs it,
        when the bus is quiet and the access ends strictly before
        ``sim.horizon()``: until then nothing else runs, so no one can
        contend for the bus or touch the word.  The window passes each
        region the instant it starts at and the room left before the
        horizon (none on a busy bus); the region records the request
        instant in ``starts``, reads or writes the word directly, calls
        the trace hook, and hands back the fault checkpoint just past
        its last such access.  One ``bus.credit`` at the window
        boundary, before the sleep, credits all of the window's in-place
        accesses.  Every other load or store ends the window, here.
        """
        state = self.state
        if state.halted:
            return state
        core = self.core
        sim = core.sim
        icache = core.icache
        # Lines are filled in place: the tag list is never rebound.
        tags = icache._tags
        local_mem = core.local_mem
        ddr = core.ddr
        bus = core.bus
        cpu_id = core.cpu_id
        local_base = local_mem.base
        local_top = local_mem.base + local_mem.size
        local_latency = local_mem.access_latency(1)
        ddr_base = ddr.base
        ddr_top = ddr.base + ddr.size
        ddr_words = ddr._words
        bus_credit = bus.credit
        trace = self.trace
        rec = None
        if trace is not None:
            record = trace.record

            def rec(time: int, addr: int, op: str) -> None:
                record(time, "access", cpu=cpu_id,
                       info=f"addr={addr:#x} op={op}")

        decoded = self._decoded
        regions = self._regions
        entries = regions.entries
        inline = regions.inline
        sizes = regions.sizes
        longest = regions.longest
        n = len(decoded)
        regs = state.regs
        metrics = self.metrics
        fuel = max_instructions - state.instructions_retired
        filled_pc = -1
        sleep = None
        pc = state.pc
        # Fault hooks: any flip/upset must invalidate the live window.
        local_mem.add_fault_listener(self._on_fault)
        ddr.add_fault_listener(self._on_fault)
        core.add_upset_listener(self._on_fault)
        try:
            while True:
                now = sim.now
                # A DDR access that ends before this many cycles from
                # now, on a quiet bus, is played in place: nothing else
                # can run, or reach the bus, before it ends.
                room = (sim.horizon() - now
                        if bus._holder is None and not bus._waiting else 0)
                # Request instants of the window's in-place accesses.
                starts: List[int] = []
                # The checkpoint a fault rolls back to: the window's
                # entry, then past the last access a region played in
                # place.  Its registers are the live ones (ck_regs None)
                # until the first region call, which may write them.
                ck_pc = pc
                w_fuel = ck_fuel = fuel
                w_skip = ck_skip = filled_pc
                filled_pc = -1
                ck_regs = None
                ck_pending = 0
                pending = 0
                sync = 0
                err: Optional[ISAError] = None
                op: tuple = ()
                addr = 0
                # ---- the window: compiled regions, no engine events
                while True:
                    if fuel <= 0:
                        err = ISAError(
                            f"instruction budget {max_instructions} "
                            f"exhausted at pc={pc}"
                        )
                        sync = _S_ERROR
                        break
                    if pc < 0 or pc >= n:
                        err = ISAError(f"pc {pc} outside program")
                        sync = _S_ERROR
                        break
                    region = entries[pc]
                    if region is None and inline[pc]:
                        region = regions.entry(pc)
                    if region is not None:
                        if ck_regs is None:
                            ck_regs = regs[:]
                        if fuel < longest and sizes[pc] > fuel:
                            region = regions.truncated(pc, fuel)
                        pc, cost, retired, k = region(
                            regs, tags, fuel, pc, now + pending,
                            room - pending, starts.append, ddr_words, rec)
                        if k is not None:
                            # Past the region's last in-place access:
                            # its written registers held k's values.
                            ck_pc = k[0]
                            ck_fuel = k[1]
                            ck_pending = pending + k[2]
                            ck_skip = -1
                            ck_regs = regs[:]
                            for i, reg in enumerate(k[3], 4):
                                ck_regs[reg] = k[i]
                        if retired:
                            fuel -= retired
                            pending += cost
                            continue
                    # Nothing retired: an I-cache miss, or halt, or a
                    # load or store no region plays.
                    op = decoded[pc]
                    if tags[op[5]] != op[6]:
                        sync = _S_FILL
                        break
                    fuel -= 1
                    pending += 1
                    kind = op[0]
                    if kind == _K_HALT:
                        sync = _S_HALT
                        break
                    offset = op[4] if kind & 1 else regs[op[4]]
                    addr = (regs[op[3]] + offset) & MASK32
                    if local_base <= addr < local_top:
                        pending += local_latency
                        sync = _S_LOCAL
                    elif ddr_base <= addr < ddr_top:
                        sync = _S_DDR
                    else:
                        err = ISAError(
                            f"address {addr:#x} maps to no memory region"
                        )
                        sync = _S_ERROR
                    break

                # ---- window boundary: bulk-apply counters, one sleep
                # Every fetch the window retired hit the I-cache, except
                # a first fetch that the previous window's refill covered.
                state.pc = pc
                state.instructions_retired = max_instructions - fuel
                self.windows += 1
                self.window_instructions += w_fuel - fuel
                self.cycles += pending
                icache.hits += w_fuel - fuel - (w_skip >= 0)
                if starts:
                    bus_credit(cpu_id, ddr, starts)
                    self.data_accesses += len(starts)
                if pending:
                    sleep = sim.advance(pending, sleep)
                    self._sleep = sleep
                    yield sleep
                    self._sleep = None
                    if self._window_broken:
                        # A fault landed inside the coalesced sleep,
                        # past the checkpoint: every access played in
                        # place ended before anything else could run.
                        # The early-woken sleep leaves a stale queue
                        # entry behind; never re-arm it.
                        self._window_broken = False
                        sleep = None
                        self.replays += 1
                        tail = pending - ck_pending
                        if ck_regs is not None:
                            regs[:] = ck_regs
                        self.cycles -= tail
                        icache.hits -= ck_fuel - fuel - (ck_skip >= 0)
                        state.pc = ck_pc
                        state.instructions_retired = max_instructions - ck_fuel
                        state.halted = False
                        yield from self._replay(
                            ck_pc, ck_skip, sim.now - now - ck_pending, tail
                        )
                        if (state.pc != pc
                                or state.instructions_retired
                                != max_instructions - fuel):  # pragma: no cover
                            raise ISAError("block replay diverged from window")

                # ---- the interaction point, at its exact instant
                if sync == _S_LOCAL:
                    self.data_accesses += 1
                    if op[0] <= 9:  # load
                        value = local_mem.read_word(addr)
                        rd = op[2]
                        if rd:
                            regs[rd] = value
                    else:
                        local_mem.write_word(addr, regs[op[2]])
                    pc += 1
                    state.pc = pc
                elif sync == _S_DDR:
                    self.data_accesses += 1
                    start = sim.now
                    yield from bus.transfer(cpu_id, ddr, words=1)
                    self.cycles += sim.now - start
                    load = op[0] <= 9
                    if rec is not None:
                        rec(sim.now, addr, "read" if load else "write")
                    if load:
                        value = ddr.read_word(addr)
                        rd = op[2]
                        if rd:
                            regs[rd] = value
                    else:
                        ddr.write_word(addr, regs[op[2]])
                    pc += 1
                    state.pc = pc
                elif sync == _S_FILL:
                    icache.misses += 1
                    self.icache_misses += 1
                    start = sim.now
                    yield from bus.transfer(cpu_id, ddr,
                                            words=icache.line_words)
                    icache.fill_line(op[7])
                    self.cycles += sim.now - start
                    filled_pc = pc
                elif sync == _S_HALT:
                    pc += 1
                    state.pc = pc
                    state.halted = True
                    if metrics is not None:
                        self._record_metrics(metrics)
                    return state
                else:  # _S_ERROR
                    if metrics is not None:
                        self._record_metrics(metrics)
                    raise err
        finally:
            self._sleep = None
            local_mem.remove_fault_listener(self._on_fault)
            ddr.remove_fault_listener(self._on_fault)
            core.remove_upset_listener(self._on_fault)

    def _replay(self, pc: int, skip: int, credit: int, pending: int):
        """Re-run a rolled-back window per-instruction across a fault.

        ``credit`` cycles of the window's coalesced sleep had already
        elapsed when the fault broke it, so the instants the reference
        interpreter has already passed apply instantly and the
        remainder sleeps at per-instruction granularity.  A window
        carries no memory traffic past its checkpoint, so the replay
        re-traces the identical path from the checkpointed registers;
        the terminal interaction point's cost is slept here but its
        *effect* stays with the caller (at the exact boundary instant,
        after the fault).
        """
        state = self.state
        regs = state.regs
        decoded = self._decoded
        icache = self.core.icache
        timeout = self.core.sim.timeout
        local_mem = self.core.local_mem
        local_base = local_mem.base
        local_top = local_mem.base + local_mem.size
        local_latency = local_mem.access_latency(1)
        done = 0
        first = True
        while done < pending:
            op = decoded[pc]
            kind = op[0]
            if not (first and pc == skip):
                icache.hits += 1
            first = False
            taken = False
            if kind == 2:
                v = regs[op[2]]
                taken = op[1](v - 0x1_0000_0000 if v & 0x8000_0000 else v)
                cost = 1 + BRANCH_PENALTY if taken else 1
            elif kind >= 8:
                offset = op[4] if kind & 1 else regs[op[4]]
                addr = (regs[op[3]] + offset) & MASK32
                cost = 1
                if local_base <= addr < local_top:
                    cost += local_latency
            elif kind in (3, 4, 5):
                cost = 1 + BRANCH_PENALTY
            else:
                cost = 1
            if credit >= cost:
                credit -= cost
            else:
                yield timeout(cost - credit)
                credit = 0
            done += cost
            self.cycles += cost
            state.instructions_retired += 1
            if kind == 1:
                rd = op[2]
                if rd:
                    regs[rd] = op[1](regs[op[3]], op[4])
                pc += 1
            elif kind == 0:
                rd = op[2]
                if rd:
                    regs[rd] = op[1](regs[op[3]], regs[op[4]])
                pc += 1
            elif kind == 2:
                pc = op[4] if taken else pc + 1
            elif kind == 3:
                pc = op[4]
            elif kind == 4:
                rd = op[2]
                if rd:
                    regs[rd] = pc + 1
                pc = op[4]
            elif kind == 5:
                pc = regs[op[2]]
            elif kind == 6:
                pc += 1
            # halt (7) and memory (>= 8): cost slept above, effect and
            # pc advance handled by the caller at the boundary instant.
            state.pc = pc

    def _record_metrics(self, metrics) -> None:
        """Flush block counters into an obs metrics registry."""
        labels = {"cpu": self.core.cpu_id}
        metrics.counter(
            "isa_windows_total",
            help="coalesced basic-block windows executed",
            labels=labels,
        ).inc(self.windows)
        metrics.counter(
            "isa_window_instructions_total",
            help="instructions retired inside coalesced windows",
            labels=labels,
        ).inc(self.window_instructions)
        metrics.counter(
            "isa_block_replays_total",
            help="windows invalidated by faults and replayed",
            labels=labels,
        ).inc(self.replays)


def _build_dispatch() -> Dict[str, Tuple]:
    """Precompute the opcode method table from the semantic tables."""
    table: Dict[str, Tuple] = {
        "nop": (ISAExecutor._exec_nop, False, None),
        "halt": (ISAExecutor._exec_halt, False, None),
        "lw": (ISAExecutor._exec_load, True, False),
        "lwi": (ISAExecutor._exec_load, True, True),
        "sw": (ISAExecutor._exec_store, True, False),
        "swi": (ISAExecutor._exec_store, True, True),
        "br": (ISAExecutor._exec_br, False, None),
        "brl": (ISAExecutor._exec_brl, False, None),
        "jr": (ISAExecutor._exec_jr, False, None),
    }
    for op, func in _ALU_FUNCS.items():
        if op in OPCODES:
            table[op] = (ISAExecutor._exec_alu, False, func)
        if op + "i" in OPCODES:
            table[op + "i"] = (ISAExecutor._exec_alui, False, func)
    for op, test in _BRANCH_TESTS.items():
        table[op] = (ISAExecutor._exec_branch, False, test)
    return table


ISAExecutor._DISPATCH = _build_dispatch()
