"""Abstract interpretation of assembled MicroBlaze-subset programs.

An interval/constant value analysis over the CFG built by
:class:`~repro.lint.asm.ProgramAnalysis`, run per unit with widening at
loop heads, a descending narrowing sweep, and branch-edge refinement.
Calls are analysed context-sensitively (the callee is re-analysed per
distinct abstract entry state, memoised), which the leaf-routine
``brl``/``jr`` convention keeps cheap.

From one fixpoint the pass derives three verified products:

1. **Loop-bound inference** for counted loops (a countdown register
   with a single ``addi r, r, -c`` step on every cycle and an exit
   branch testing it).  Inferred trip counts are cross-checked against
   ``#@ bound=`` source annotations (rules ``ASM101``-``ASM103``) and,
   in the kernel audit, against actual executor iteration counts.
2. **Memory and stack safety proofs**: every load/store's abstract
   address interval must fit a region of the memory map (``ASM104``),
   and the worst-case call-chain frame depth must fit the per-task
   stack allocation (``ASM105``).
3. **Path-sensitive WCET tightening**: branch edges that are
   infeasible in every analysed context (and the code they guard) are
   excluded from the longest-path bound, and inferred trip counts cap
   the annotated loop bounds, so the *verified* WCET is never looser
   than the annotation-based one and never tighter than the measured
   executor cycles.

Non-relational intervals cannot bound loop-carried pointers (a
``memcpy`` cursor has no finite interval fixpoint), so induction
registers -- single ``addi r, r, c`` step per iteration -- are *pinned*
at the loop head to ``init + c*[0, N-1]`` once the trip count ``N`` is
known.  The pin is sound by the external induction argument, not by the
abstract fixpoint.

Rule codes ``ASM100``-``ASM105`` are catalogued in ``docs/LINT.md``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.hw.isa import MASK32, Instruction, Program
from repro.lint.asm import (
    ALU_RRI,
    ALU_RRR,
    COND_BRANCHES,
    CostModel,
    MemoryRegion,
    ProgramAnalysis,
    WCETResult,
    _strongly_connected,
    default_memory_map,
    regs_written,
    wcet_bound,
)
from repro.lint.diagnostics import LintReport, Severity

MAXU = MASK32
_TWO32 = 1 << 32
_SIGN_MAX = (1 << 31) - 1

#: Loop-head visits before widening kicks in (delayed widening keeps
#: short chains exact).
WIDEN_DELAY = 3

#: Node-processing budget per analysis; exceeding it is ASM100.
DEFAULT_STEP_BUDGET = 200_000

#: Default per-task stack allocation, in words.  Mirrors
#: ``repro.kernel.microkernel.TaskBinding.stack_words`` (cross-checked
#: by a test; duplicated here so the lint tier does not import the
#: kernel).
DEFAULT_STACK_BUDGET_WORDS = 256


# ------------------------------------------------------------------ intervals
@dataclass(frozen=True)
class Interval:
    """An unsigned 32-bit interval ``[lo, hi]`` (inclusive, lo <= hi)."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= MAXU:
            raise ValueError(f"bad interval [{self.lo:#x}, {self.hi:#x}]")

    # ------------------------------------------------------------- predicates
    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == MAXU

    @property
    def value(self) -> int:
        if not self.is_const:
            raise ValueError(f"{self} is not a constant")
        return self.lo

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    # ------------------------------------------------------ lattice operations
    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def widen(self, newer: "Interval") -> "Interval":
        lo = self.lo if newer.lo >= self.lo else 0
        hi = self.hi if newer.hi <= self.hi else MAXU
        return Interval(lo, hi)

    def signed_bounds(self) -> Tuple[int, int]:
        """Bounds of the interval viewed as signed 32-bit values."""
        if self.hi <= _SIGN_MAX:
            return self.lo, self.hi
        if self.lo > _SIGN_MAX:
            return self.lo - _TWO32, self.hi - _TWO32
        return -(1 << 31), _SIGN_MAX  # straddles the sign boundary

    def __str__(self) -> str:
        if self.is_const:
            return f"{{{self.lo:#x}}}"
        if self.is_top:
            return "T"
        return f"[{self.lo:#x}, {self.hi:#x}]"


TOP = Interval(0, MAXU)
ZERO = Interval(0, 0)
_NEG = Interval(1 << 31, MAXU)  # signed < 0
_NONNEG = Interval(0, _SIGN_MAX)  # signed >= 0
_POS = Interval(1, _SIGN_MAX)  # signed > 0


def const(value: int) -> Interval:
    value &= MASK32
    return Interval(value, value)


def _wrap(lo: int, hi: int) -> Interval:
    """Modular reduction of an exact integer range into the domain."""
    if hi - lo + 1 >= _TWO32:
        return TOP
    lo_m, hi_m = lo % _TWO32, hi % _TWO32
    if lo_m <= hi_m:
        return Interval(lo_m, hi_m)
    return TOP  # straddles the wrap-around point


# ------------------------------------------------------------------ transfer
def _bitlen_bound(a: Interval, b: Interval) -> Interval:
    bits = max(a.hi.bit_length(), b.hi.bit_length())
    return Interval(0, (1 << bits) - 1) if bits else ZERO


def _tf_alu(op: str, a: Interval, b: Interval) -> Interval:
    """Abstract value of ``op`` over the unsigned-interval domain."""
    if op == "add":
        return _wrap(a.lo + b.lo, a.hi + b.hi)
    if op == "sub":
        return _wrap(a.lo - b.hi, a.hi - b.lo)
    if op == "rsub":
        return _wrap(b.lo - a.hi, b.hi - a.lo)
    if op == "mul":
        return _wrap(a.lo * b.lo, a.hi * b.hi)
    if op == "and":
        if a.is_const and b.is_const:
            return const(a.value & b.value)
        return Interval(0, min(a.hi, b.hi))
    if op == "or":
        if a.is_const and b.is_const:
            return const(a.value | b.value)
        bound = _bitlen_bound(a, b)
        return Interval(min(max(a.lo, b.lo), bound.hi), bound.hi)
    if op == "xor":
        if a.is_const and b.is_const:
            return const(a.value ^ b.value)
        return _bitlen_bound(a, b)
    if op == "sll":
        if b.is_const:
            k = b.value & 31
            return _wrap(a.lo << k, a.hi << k)
        return TOP
    if op == "srl":
        if b.is_const:
            k = b.value & 31
            return Interval(a.lo >> k, a.hi >> k)
        return Interval(0, a.hi)
    if op == "sra":
        if b.is_const:
            k = b.value & 31
            slo, shi = a.signed_bounds()
            return _wrap(slo >> k, shi >> k)
        return TOP
    if op == "cmp":  # rd = signed(rb) - signed(ra)
        alo, ahi = a.signed_bounds()
        blo, bhi = b.signed_bounds()
        return _wrap(blo - ahi, bhi - alo)
    return TOP


def _exclude_zero(iv: Interval) -> Optional[Interval]:
    if iv.lo > 0:
        return iv
    if iv.hi == 0:
        return None
    return Interval(1, iv.hi)


def refine_branch(op: str, iv: Interval) -> Tuple[Optional[Interval], Optional[Interval]]:
    """(taken, fall-through) refinements of the tested register.

    ``None`` means the corresponding edge is infeasible for ``iv``.
    Branch tests read the *signed* register value.
    """
    if op == "beqz":
        return iv.meet(ZERO), _exclude_zero(iv)
    if op == "bnez":
        return _exclude_zero(iv), iv.meet(ZERO)
    if op == "bltz":
        return iv.meet(_NEG), iv.meet(_NONNEG)
    if op == "bgez":
        return iv.meet(_NONNEG), iv.meet(_NEG)
    if op == "bgtz":
        # fall-through holds signed <= 0 = {0} u [2^31, MAXU]: only an
        # interval when iv is known non-negative.
        fall = iv.meet(ZERO) if iv.hi <= _SIGN_MAX else iv
        return iv.meet(_POS), fall
    if op == "blez":
        taken = iv.meet(ZERO) if iv.hi <= _SIGN_MAX else iv
        return taken, iv.meet(_POS)
    return iv, iv  # pragma: no cover - COND_BRANCHES is exhaustive


# ------------------------------------------------------------- machine states
#: One abstract machine state: a 32-tuple of intervals (r0 fixed at 0).
RegState = Tuple[Interval, ...]


def initial_state(reg_ranges: Optional[Dict[int, Interval]] = None) -> RegState:
    regs = [TOP] * 32
    regs[0] = ZERO
    for reg, iv in (reg_ranges or {}).items():
        if not 0 < reg < 32:
            raise ValueError(f"register r{reg} out of range for an entry range")
        regs[reg] = iv
    return tuple(regs)


def _write(state: RegState, reg: int, iv: Interval) -> RegState:
    if reg == 0:
        return state
    regs = list(state)
    regs[reg] = iv
    return tuple(regs)


def _join_states(a: Optional[RegState], b: RegState) -> RegState:
    if a is None:
        return b
    return tuple(x.join(y) for x, y in zip(a, b))


def _meet_states(a: RegState, b: RegState) -> RegState:
    """Per-register meet, keeping ``b`` where the meet would be empty."""
    return tuple((x.meet(y) or y) for x, y in zip(a, b))


def _transfer(instr: Instruction, state: RegState) -> RegState:
    """Abstract effect of one non-control instruction."""
    op = instr.op
    if op in ALU_RRR:
        return _write(state, instr.rd, _tf_alu(op, state[instr.ra], state[instr.rb]))
    if op in ALU_RRI:
        return _write(
            state, instr.rd, _tf_alu(op[:-1], state[instr.ra], const(instr.imm))
        )
    if op in ("lw", "lwi"):
        # memory contents are not tracked: loads return TOP
        return _write(state, instr.rd, TOP)
    return state  # sw/swi/nop/branches/jr/halt leave registers alone


def _address_of(instr: Instruction, state: RegState) -> Interval:
    """Abstract byte address of a load/store."""
    offset = const(instr.imm) if instr.op in ("lwi", "swi") else state[instr.rb]
    return _tf_alu("add", state[instr.ra], offset)


# ---------------------------------------------------------------- annotations
class AnnotationError(Exception):
    """Malformed ``#@`` annotation in an assembly source."""


@dataclass
class Annotations:
    """Machine-checkable contracts parsed from ``#@`` source comments.

    - ``LABEL:  #@ bound=N`` (trailing on a label line) asserts the loop
      headed at ``LABEL`` iterates at most ``N`` times;
    - ``#@ param rN in LO..HI`` (standalone line) constrains an entry
      register for contract-context analysis (``audit_routine``).
    """

    loop_bounds: Dict[str, int] = field(default_factory=dict)
    reg_ranges: Dict[int, Interval] = field(default_factory=dict)
    bound_lines: Dict[str, int] = field(default_factory=dict)


_BOUND_RE = re.compile(r"^bound\s*=\s*([0-9][0-9a-fA-Fx_]*)$")
_PARAM_RE = re.compile(
    r"^param\s+r(\d+)\s+in\s+([0-9][0-9a-fA-Fx_]*)\s*\.\.\s*([0-9][0-9a-fA-Fx_]*)$"
)
_TRAILING_LABEL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*):\s*$")


def parse_annotations(source: str) -> Annotations:
    """Extract ``#@`` annotations; plain comments are left alone."""
    ann = Annotations()
    for line_no, raw in enumerate(source.splitlines(), start=1):
        if "#@" not in raw:
            continue
        code, _, text = raw.partition("#@")
        text = text.strip()
        match = _BOUND_RE.match(text)
        if match:
            label_match = _TRAILING_LABEL_RE.search(code.strip())
            if not label_match:
                raise AnnotationError(
                    f"line {line_no}: '#@ bound=' must trail a 'label:' line"
                )
            bound = int(match.group(1), 0)
            if bound < 1:
                raise AnnotationError(f"line {line_no}: bound must be >= 1")
            label = label_match.group(1)
            if label in ann.loop_bounds:
                raise AnnotationError(f"line {line_no}: duplicate bound for {label!r}")
            ann.loop_bounds[label] = bound
            ann.bound_lines[label] = line_no
            continue
        match = _PARAM_RE.match(text)
        if match:
            reg = int(match.group(1))
            lo, hi = int(match.group(2), 0), int(match.group(3), 0)
            if not 0 < reg < 32:
                raise AnnotationError(f"line {line_no}: register r{reg} out of range")
            if not 0 <= lo <= hi <= MAXU:
                raise AnnotationError(f"line {line_no}: bad range {lo:#x}..{hi:#x}")
            ann.reg_ranges[reg] = Interval(lo, hi)
            continue
        raise AnnotationError(
            f"line {line_no}: unrecognised annotation {text!r} "
            "(expected 'bound=N' or 'param rN in LO..HI')"
        )
    return ann


# ------------------------------------------------------------- loop structure
@dataclass
class CounterInfo:
    """The countdown register that makes a loop *counted*."""

    reg: int
    step: int  # positive decrement magnitude per iteration
    branch: int  # exit-branch node
    style: str  # 'nz' (exit on == 0) or 'pos' (exit on signed <= 0)
    do_while: bool  # step executes before the exit test on every cycle
    sole_exit: bool  # the exit branch is the only way out of the loop


@dataclass
class LoopInfo:
    """One natural loop (or an irreducible SCC) of a unit's CFG."""

    header: int
    members: FrozenSet[int]
    irreducible: bool = False
    has_calls: bool = False
    counter: Optional[CounterInfo] = None
    inductions: Dict[int, int] = field(default_factory=dict)  # reg -> signed step


def _cycle_avoids(
    members: FrozenSet[int], succs: Dict[int, List[int]], header: int, node: int
) -> bool:
    """True when some header-to-header cycle does not pass ``node``."""
    if node == header:
        return False
    seen: Set[int] = set()
    stack = [s for s in succs.get(header, []) if s in members and s != node]
    while stack:
        current = stack.pop()
        if current == header:
            return True
        if current in seen:
            continue
        seen.add(current)
        stack.extend(
            s for s in succs.get(current, []) if s in members and s != node
        )
    return False


def _reaches_inside(
    members: FrozenSet[int],
    succs: Dict[int, List[int]],
    src: int,
    dst: int,
    avoid: int,
) -> bool:
    """True when ``dst`` is reachable from ``src`` inside the loop
    without passing through ``avoid`` (used for step/test ordering)."""
    seen: Set[int] = set()
    stack = [s for s in succs.get(src, []) if s in members and s != avoid]
    while stack:
        current = stack.pop()
        if current == dst:
            return True
        if current in seen:
            continue
        seen.add(current)
        stack.extend(s for s in succs.get(current, []) if s in members and s != avoid)
    return False


def _detect_counter(
    loop: LoopInfo,
    succs: Dict[int, List[int]],
    instructions: Sequence[Instruction],
    unit_exits: Set[int],
) -> None:
    """Fill ``loop.inductions`` and ``loop.counter`` (structural only)."""
    members = loop.members
    if loop.irreducible or loop.has_calls:
        return
    # induction registers: a single addi r, r, c write site on every cycle
    writes: Dict[int, List[int]] = {}
    for node in members:
        for reg in regs_written(instructions[node]):
            writes.setdefault(reg, []).append(node)
    for reg, sites in sorted(writes.items()):
        if reg == 0 or len(sites) != 1:
            continue
        site = sites[0]
        instr = instructions[site]
        if instr.op != "addi" or instr.rd != reg or instr.ra != reg:
            continue
        step = instr.imm & MASK32
        step = step - _TWO32 if step > _SIGN_MAX else step
        if step == 0:
            continue
        if _cycle_avoids(members, succs, loop.header, site):
            continue  # not stepped on every iteration
        loop.inductions[reg] = step

    exit_sources = {
        node
        for node in members
        for succ in succs.get(node, [])
        if succ not in members
    }
    in_loop_exits = unit_exits & members  # jr/halt leave the unit from inside
    for branch in sorted(members):
        instr = instructions[branch]
        if instr.op not in COND_BRANCHES:
            continue
        taken, fall = instr.imm, branch + 1
        taken_in, fall_in = taken in members, fall in members
        if taken_in == fall_in:
            continue
        exits_on_taken = not taken_in
        step = loop.inductions.get(instr.rd)
        if step is None or step >= 0:
            continue  # counted loops count down
        if instr.op == "beqz" and exits_on_taken:
            style = "nz"
        elif instr.op == "bnez" and not exits_on_taken:
            style = "nz"
        elif instr.op == "blez" and exits_on_taken:
            style = "pos"
        elif instr.op == "bgtz" and not exits_on_taken:
            style = "pos"
        else:
            continue
        if _cycle_avoids(members, succs, loop.header, branch):
            continue
        step_site = [
            n for n in members if loop.inductions.get(instr.rd) is not None
            and instructions[n].op == "addi"
            and instructions[n].rd == instr.rd and instructions[n].ra == instr.rd
        ][0]
        do_while = branch == step_site or _reaches_inside(
            members, succs, step_site, branch, avoid=loop.header
        )
        sole_exit = exit_sources <= {branch} and not in_loop_exits
        loop.counter = CounterInfo(
            reg=instr.rd,
            step=-step,
            branch=branch,
            style=style,
            do_while=do_while,
            sole_exit=sole_exit,
        )
        return


def _loop_forest(
    nodes: Set[int],
    entry: int,
    succs: Dict[int, List[int]],
    instructions: Sequence[Instruction],
    call_sites: Set[int],
    unit_exits: Set[int],
    out: Dict[int, LoopInfo],
    widen_points: Set[int],
) -> None:
    """Recursive SCC decomposition into a loop forest (header-keyed)."""
    for members in _strongly_connected(nodes, succs):
        member_set = frozenset(members)
        cyclic = len(members) > 1 or any(
            node in succs.get(node, []) for node in members
        )
        if not cyclic:
            continue
        headers = {
            node
            for node in member_set
            if node == entry
            or any(
                pred not in member_set
                for pred, outs in succs.items()
                if node in outs and pred in nodes
            )
        }
        if len(headers) != 1:
            # irreducible: widen everywhere in the SCC, infer nothing
            header = min(member_set)
            out[header] = LoopInfo(
                header=header, members=member_set, irreducible=True
            )
            widen_points |= member_set
            continue
        header = headers.pop()
        loop = LoopInfo(
            header=header,
            members=member_set,
            has_calls=bool(member_set & call_sites),
        )
        _detect_counter(loop, succs, instructions, unit_exits)
        out[header] = loop
        widen_points.add(header)
        inner_succs = {
            node: [s for s in succs.get(node, []) if s in member_set and s != header]
            for node in member_set
        }
        _loop_forest(
            set(member_set), header, inner_succs, instructions, call_sites,
            unit_exits, out, widen_points,
        )


def _trips(counter: CounterInfo, init: Interval) -> Optional[int]:
    """Upper bound on header executions given the entry-edge interval."""
    step = counter.step
    if counter.style == "nz":
        if counter.do_while:
            if init.lo < 1:
                return None  # a zero entry value wraps past the == 0 exit
            if step == 1:
                return init.hi
            if init.is_const and init.lo % step == 0:
                return init.lo // step
            return None
        if step == 1:
            return init.hi + 1
        if init.is_const and init.lo % step == 0:
            return init.lo // step + 1
        return None
    # 'pos': crossing zero into the negatives exits regardless of step
    if init.hi > _SIGN_MAX:
        return None
    if counter.do_while:
        if init.lo < 1:
            return None
        return -(-init.hi // step)
    return (-(-init.hi // step) + 1) if init.hi > 0 else 1


def _trips_min(counter: CounterInfo, init: Interval) -> int:
    """Exact lower bound on header executions (1 when unknown)."""
    if not init.is_const or not counter.sole_exit:
        return 1
    return _trips(counter, init) or 1


def _pin(entry_iv: Interval, step: int, n_trips: int) -> Optional[Interval]:
    """Header-state pin of an induction register over ``n_trips`` visits.

    At the k-th header visit (k in 0..N-1) the register equals
    ``init + step*k`` exactly, so its header interval is the entry
    interval shifted by ``step*[0, N-1]``.  ``None`` when the range
    could wrap (the pin would be unsound).
    """
    delta = step * (n_trips - 1)
    lo = entry_iv.lo + min(0, delta)
    hi = entry_iv.hi + max(0, delta)
    if lo < 0 or hi > MAXU:
        return None
    return Interval(lo, hi)


# --------------------------------------------------------------------- engine
class _AnalysisBudget(Exception):
    """Raised internally when the node-processing budget is exhausted."""


@dataclass
class _LoopRecord:
    """Aggregated per-header inference across all analysed contexts."""

    counted: bool = False
    reached: bool = False
    unbounded: bool = False  # some context failed to bound a counted loop
    inferred: Optional[int] = None  # max trips over contexts
    inferred_min: int = 1  # strongest exact lower bound over contexts


class _Engine:
    """Interprocedural interval interpreter over a ``ProgramAnalysis``."""

    def __init__(
        self,
        program: Program,
        analysis: ProgramAnalysis,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        self.program = program
        self.analysis = analysis
        self.steps = 0
        self.step_budget = step_budget
        self.loops: Dict[int, Dict[int, LoopInfo]] = {}
        self.widen_at: Dict[int, Set[int]] = {}
        for entry, unit in analysis.units.items():
            forest: Dict[int, LoopInfo] = {}
            widen: Set[int] = set()
            _loop_forest(
                set(unit.nodes),
                unit.entry,
                unit.succs,
                program.instructions,
                set(unit.calls),
                set(unit.exits),
                forest,
                widen,
            )
            self.loops[entry] = forest
            self.widen_at[entry] = widen
        # cross-context accumulators
        self.memo: Dict[Tuple[int, RegState], Optional[RegState]] = {}
        self.active: Set[int] = set()
        self.reached: Set[int] = set()
        self.edge_feasible: Set[Tuple[int, int]] = set()
        self.mem_facts: Dict[int, Interval] = {}
        self.loop_records: Dict[int, _LoopRecord] = {}
        self.bad_returns: Dict[int, Tuple[int, int]] = {}  # jr node -> (got, want)

    # ------------------------------------------------------------ bookkeeping
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_budget:
            raise _AnalysisBudget()

    def _note_trips(
        self, header: int, trips: Optional[int], trips_min: int, counted: bool
    ) -> None:
        record = self.loop_records.setdefault(header, _LoopRecord())
        record.reached = True
        record.counted = record.counted or counted
        if counted:
            if trips is None:
                record.unbounded = True
                record.inferred = None
            elif not record.unbounded:
                record.inferred = (
                    trips if record.inferred is None else max(record.inferred, trips)
                )
            record.inferred_min = max(record.inferred_min, trips_min)

    # ----------------------------------------------------------------- flow
    def _flow(self, unit, node: int, state: RegState) -> List[Tuple[int, RegState]]:
        """Successor edge states of one node under ``state``."""
        instr = self.program.instructions[node]
        op = instr.op
        succs = unit.succs.get(node, [])
        if op in COND_BRANCHES:
            iv = state[instr.rd]
            taken_iv, fall_iv = refine_branch(op, iv)
            merged: Dict[int, RegState] = {}
            for succ in succs:
                refined = taken_iv if succ == instr.imm else fall_iv
                if succ == instr.imm and succ == node + 1:
                    refined = iv  # degenerate branch-to-next
                if refined is None:
                    continue
                out = _write(state, instr.rd, refined)
                merged[succ] = (
                    _join_states(merged.get(succ), out) if succ in merged else out
                )
            return sorted(merged.items())
        if op == "brl" and node in unit.calls:
            after_link = _write(state, instr.rd, const(node + 1))
            returned = self._run_unit(unit.calls[node], after_link)
            if returned is None:
                return []  # callee never returns; fall-through infeasible
            return [(succ, returned) for succ in succs]
        new_state = _transfer(instr, state)
        return [(succ, new_state) for succ in succs]

    def _header_state(
        self,
        loop: LoopInfo,
        entry_c: Optional[RegState],
        back_c: Optional[RegState],
        old: Optional[RegState],
        visit_count: int,
    ) -> RegState:
        """IN state of a reducible loop header: pins + delayed widening."""
        pins: Dict[int, Interval] = {}
        if entry_c is not None and loop.counter is not None:
            counter = loop.counter
            trips = _trips(counter, entry_c[counter.reg])
            if trips is not None:
                for reg, step in sorted(loop.inductions.items()):
                    if reg == counter.reg:
                        continue
                    pin = _pin(entry_c[reg], step, trips)
                    if pin is not None:
                        pins[reg] = pin
                init = entry_c[counter.reg]
                pins[counter.reg] = Interval(
                    1 if counter.do_while else 0, init.hi
                )
        regs: List[Interval] = []
        for reg in range(32):
            contribs = None
            if entry_c is not None:
                contribs = entry_c[reg]
            if back_c is not None:
                contribs = (
                    back_c[reg] if contribs is None else contribs.join(back_c[reg])
                )
            if contribs is None:  # pragma: no cover - headers enter via entry edges
                contribs = TOP
            pin = pins.get(reg)
            if pin is not None:
                regs.append(pin.meet(contribs) or pin)
            elif old is None:
                regs.append(contribs)
            elif visit_count >= WIDEN_DELAY:
                regs.append(old[reg].widen(old[reg].join(contribs)))
            else:
                regs.append(old[reg].join(contribs))
        return tuple(regs)

    # ------------------------------------------------------------------ units
    def _run_unit(self, entry: int, entry_state: RegState) -> Optional[RegState]:
        """Analyse one unit under ``entry_state``; returns the join of the
        ``jr``-exit states (``None`` when the unit never returns)."""
        key = (entry, entry_state)
        if key in self.memo:
            return self.memo[key]
        if entry in self.active:  # pragma: no cover - ASM008 rejects recursion
            raise _AnalysisBudget()
        self.active.add(entry)
        try:
            unit = self.analysis.units[entry]
            loops = self.loops[entry]
            widen_at = self.widen_at[entry]
            in_state: Dict[int, RegState] = {}
            entry_c: Dict[int, RegState] = {}
            back_c: Dict[int, RegState] = {}
            visits: Dict[int, int] = {}
            if entry in loops and not loops[entry].irreducible:
                entry_c[entry] = entry_state
                in_state[entry] = self._header_state(
                    loops[entry], entry_state, None, None, 0
                )
            else:
                in_state[entry] = entry_state
            worklist = deque([entry])
            queued = {entry}
            while worklist:
                node = worklist.popleft()
                queued.discard(node)
                self._tick()
                visits[node] = visits.get(node, 0) + 1
                for succ, out in self._flow(unit, node, in_state[node]):
                    self.edge_feasible.add((node, succ))
                    loop = loops.get(succ)
                    if loop is not None and not loop.irreducible:
                        target = back_c if node in loop.members else entry_c
                        target[succ] = _join_states(target.get(succ), out)
                        new_in = self._header_state(
                            loop,
                            entry_c.get(succ),
                            back_c.get(succ),
                            in_state.get(succ),
                            visits.get(succ, 0),
                        )
                    else:
                        previous = in_state.get(succ)
                        new_in = _join_states(previous, out)
                        if (
                            previous is not None
                            and succ in widen_at
                            and visits.get(succ, 0) >= WIDEN_DELAY
                        ):
                            new_in = tuple(
                                p.widen(n) for p, n in zip(previous, new_in)
                            )
                    if in_state.get(succ) != new_in:
                        in_state[succ] = new_in
                        if succ not in queued:
                            queued.add(succ)
                            worklist.append(succ)
            self._narrow(unit, loops, in_state, entry_c, back_c, entry, entry_state)
            exit_state = self._finish_unit(unit, loops, in_state, entry_c, entry_state)
            self.memo[key] = exit_state
            return exit_state
        finally:
            self.active.discard(entry)

    def _narrow(
        self,
        unit,
        loops: Dict[int, LoopInfo],
        in_state: Dict[int, RegState],
        entry_c: Dict[int, RegState],
        back_c: Dict[int, RegState],
        entry: int,
        entry_state: RegState,
    ) -> None:
        """One descending sweep to recover precision lost to widening."""
        for node in sorted(in_state):
            self._tick()
            contributions: List[Tuple[int, RegState]] = []
            for pred in unit.preds.get(node, []):
                if pred not in in_state:
                    continue
                for succ, out in self._flow(unit, pred, in_state[pred]):
                    if succ == node:
                        contributions.append((pred, out))
            loop = loops.get(node)
            if loop is not None and not loop.irreducible:
                new_entry = entry_state if node == entry else None
                new_back: Optional[RegState] = None
                for pred, out in contributions:
                    if pred in loop.members:
                        new_back = _join_states(new_back, out)
                    else:
                        new_entry = _join_states(new_entry, out)
                if new_entry is None:
                    continue  # loop only reachable through itself; keep fixpoint
                entry_c[node] = new_entry
                if new_back is not None:
                    back_c[node] = new_back
                recomputed = self._header_state(loop, new_entry, new_back, None, 0)
            else:
                joined = entry_state if node == entry else None
                for _, out in contributions:
                    joined = _join_states(joined, out)
                if joined is None:
                    continue
                recomputed = joined
            in_state[node] = _meet_states(in_state[node], recomputed)

    def _finish_unit(
        self,
        unit,
        loops: Dict[int, LoopInfo],
        in_state: Dict[int, RegState],
        entry_c: Dict[int, RegState],
        entry_state: RegState,
    ) -> Optional[RegState]:
        """Record cross-context facts; return the joined ``jr`` exit state."""
        instructions = self.program.instructions
        exit_state: Optional[RegState] = None
        expected_return = (
            entry_state[15].value if entry_state[15].is_const else None
        )
        for node in sorted(in_state):
            state = in_state[node]
            self.reached.add(node)
            instr = instructions[node]
            if instr.op in ("lw", "lwi", "sw", "swi"):
                address = _address_of(instr, state)
                previous = self.mem_facts.get(node)
                self.mem_facts[node] = (
                    address if previous is None else previous.join(address)
                )
            if instr.op == "jr":
                target = state[instr.rd]
                if (
                    expected_return is not None
                    and target.is_const
                    and target.value != expected_return
                ):
                    self.bad_returns[node] = (target.value, expected_return)
                exit_state = _join_states(exit_state, state)
        for header, loop in sorted(loops.items()):
            if header not in in_state:
                continue  # loop never entered in this context
            if loop.irreducible or loop.counter is None:
                self._note_trips(header, None, 1, counted=False)
            else:
                init = entry_c.get(header)
                init_iv = init[loop.counter.reg] if init is not None else TOP
                self._note_trips(
                    header,
                    _trips(loop.counter, init_iv),
                    _trips_min(loop.counter, init_iv),
                    counted=True,
                )
        return exit_state


# -------------------------------------------------------------------- results
@dataclass
class LoopSummary:
    """Per-loop outcome of the analysis (header-indexed)."""

    header: int
    label: Optional[str]
    unit_entry: int
    counted: bool
    reached: bool
    inferred: Optional[int]  # sound max header executions; None if unknown
    inferred_min: int  # exact lower bound (1 when unknown)
    irreducible: bool = False


@dataclass
class AbsintResult:
    """Everything the abstract interpretation proved about a program."""

    report: LintReport
    loops: Dict[int, LoopSummary] = field(default_factory=dict)
    infeasible_edges: FrozenSet[Tuple[int, int]] = frozenset()
    unreached: FrozenSet[int] = frozenset()
    stack_words: int = 0
    stack_budget: int = DEFAULT_STACK_BUDGET_WORDS
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.report.ok


def stack_depths(analysis: ProgramAnalysis) -> Dict[int, int]:
    """Worst-case stack words per unit over the call DAG.

    The leaf-routine convention itself is stackless; this models what a
    conventional spill-everything ABI would need -- one return-address
    slot plus one word per register the unit writes -- so the bound is
    a safe budget for binding these kernels to microkernel tasks.
    """
    depths: Dict[int, int] = {}
    for unit in analysis._order:  # callees before callers
        written: Set[int] = set()
        for node in unit.nodes:
            written |= regs_written(analysis.program.instructions[node])
        written.discard(0)
        frame = 1 + len(written)
        deepest_callee = max(
            (depths.get(callee, 0) for callee in unit.calls.values()), default=0
        )
        depths[unit.entry] = frame + deepest_callee
    return depths


def _memory_diagnostics(
    engine: _Engine,
    analysis: ProgramAnalysis,
    regions: Sequence[MemoryRegion],
    report: LintReport,
) -> None:
    names = ", ".join(
        f"{r.name}=[{r.base:#x},{r.base + r.size:#x})" for r in regions
    )
    for node, address in sorted(engine.mem_facts.items()):
        op = analysis.program.instructions[node].op
        if address.is_const and address.value % 4:
            report.add(
                "ASM104",
                Severity.ERROR,
                f"{op} address {address.value:#x} is not word aligned",
                location=analysis.location(node),
                hint="word loads/stores need 4-byte aligned addresses",
            )
            continue
        fits = any(
            region.contains(address.lo) and region.contains(address.hi + 3)
            for region in regions
        )
        if not fits:
            what = (
                "cannot be bounded"
                if address.is_top
                else f"spans {address} which escapes every region ({names})"
            )
            report.add(
                "ASM104",
                Severity.ERROR,
                f"{op} address {what}",
                location=analysis.location(node),
                hint="constrain the address registers (e.g. '#@ param rN in "
                "LO..HI') or fix the pointer arithmetic",
            )


def analyse(
    program: Program,
    entry: int = 0,
    reg_ranges: Optional[Dict[int, Interval]] = None,
    memory_map: Optional[Sequence[MemoryRegion]] = None,
    analysis: Optional[ProgramAnalysis] = None,
    stack_budget: int = DEFAULT_STACK_BUDGET_WORDS,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> AbsintResult:
    """Abstract-interpret ``program`` from ``entry``.

    ``reg_ranges`` constrains entry registers (contract context); all
    other registers start unconstrained.  The result carries the loop
    summaries, infeasible edges/nodes for WCET pruning, and the memory
    (ASM104) / stack (ASM105) safety verdicts.
    """
    analysis = analysis or ProgramAnalysis(program, entry=entry)
    report = LintReport().extend(analysis.report)
    if analysis.recursive or not report.ok:
        report.add(
            "ASM100",
            Severity.ERROR,
            "structural errors prevent abstract interpretation",
            location=analysis.location(entry),
            hint="fix the ASM00x errors first",
        )
        return AbsintResult(report=report)

    engine = _Engine(program, analysis, step_budget=step_budget)
    try:
        engine._run_unit(entry, initial_state(reg_ranges))
    except _AnalysisBudget:
        report.add(
            "ASM100",
            Severity.ERROR,
            f"abstract interpretation exceeded its budget of "
            f"{step_budget} node visits without converging",
            location=analysis.location(entry),
            hint="simplify the control flow or raise step_budget",
        )
        return AbsintResult(report=report, steps=engine.steps)

    for node, (got, want) in sorted(engine.bad_returns.items()):
        report.add(
            "ASM100",
            Severity.ERROR,
            f"jr returns to instruction {got}, but the call came from "
            f"instruction {want - 1} (the CFG assumes brl/jr pairing)",
            location=analysis.location(node),
            hint="do not overwrite the link register between brl and jr",
        )

    regions = tuple(memory_map) if memory_map is not None else default_memory_map()
    _memory_diagnostics(engine, analysis, regions, report)

    depths = stack_depths(analysis)
    stack_words = depths.get(entry, 0)
    if stack_words > stack_budget:
        report.add(
            "ASM105",
            Severity.ERROR,
            f"worst-case stack depth {stack_words} words exceeds the "
            f"per-task allocation of {stack_budget} words",
            location=analysis.location(entry),
            hint="shorten the call chain or raise the task's stack_words",
        )

    loops: Dict[int, LoopSummary] = {}
    for unit_entry, forest in sorted(engine.loops.items()):
        for header, loop in sorted(forest.items()):
            record = engine.loop_records.get(header, _LoopRecord())
            loops[header] = LoopSummary(
                header=header,
                label=analysis.label_of(header),
                unit_entry=unit_entry,
                counted=record.counted,
                reached=record.reached,
                inferred=record.inferred,
                inferred_min=record.inferred_min,
                irreducible=loop.irreducible,
            )

    all_edges = {
        (node, succ)
        for unit in analysis.units.values()
        for node in unit.nodes
        for succ in unit.succs.get(node, [])
    }
    infeasible = frozenset(all_edges - engine.edge_feasible)
    unreached = frozenset(analysis.reachable - engine.reached)
    return AbsintResult(
        report=report,
        loops=loops,
        infeasible_edges=infeasible,
        unreached=unreached,
        stack_words=stack_words,
        stack_budget=stack_budget,
        steps=engine.steps,
    )


# ----------------------------------------------------------- annotation audit
def audit_annotation_rules(
    result: AbsintResult,
    annotations: Annotations,
    analysis: ProgramAnalysis,
) -> LintReport:
    """Cross-check ``#@ bound`` annotations against the inference.

    Contract-context only (``audit_routine``): a *driver* inferring a
    tighter bound than the routine's general annotation is the desired
    tightening, not a defect.
    """
    report = LintReport()
    for header, summary in sorted(result.loops.items()):
        if not summary.reached or summary.irreducible:
            continue
        label = summary.label
        annotated = annotations.loop_bounds.get(label) if label else None
        where = analysis.location(header)
        if annotated is None:
            if summary.inferred is not None:
                report.add(
                    "ASM101",
                    Severity.WARNING,
                    f"loop {label or header} has no '#@ bound' annotation "
                    f"(inference proves {summary.inferred})",
                    location=where,
                    hint=f"annotate '{label}:  #@ bound={summary.inferred}'",
                )
            else:
                report.add(
                    "ASM101",
                    Severity.ERROR,
                    f"loop {label or header} has no '#@ bound' annotation and "
                    "no bound could be inferred",
                    location=where,
                    hint="annotate the loop header or restructure it as a "
                    "counted loop",
                )
            continue
        if summary.inferred is not None and annotated > summary.inferred:
            report.add(
                "ASM102",
                Severity.WARNING,
                f"annotation bound={annotated} on {label} is loose: "
                f"inference proves at most {summary.inferred} iterations",
                location=where,
                hint=f"tighten to '#@ bound={summary.inferred}'",
            )
        if annotated < summary.inferred_min:
            report.add(
                "ASM103",
                Severity.ERROR,
                f"annotation bound={annotated} on {label} is unsound: the "
                f"loop provably iterates {summary.inferred_min} times",
                location=where,
                hint=f"raise the annotation to at least {summary.inferred_min}",
            )
    return report


# -------------------------------------------------------------- verified WCET
def bounds_for_wcet(
    result: AbsintResult, annotations: Optional[Annotations] = None
) -> Dict[Union[str, int], int]:
    """Header-indexed loop bounds: min(annotated, inferred) per loop."""
    bounds: Dict[Union[str, int], int] = {}
    loop_bounds = annotations.loop_bounds if annotations else {}
    for header, summary in result.loops.items():
        candidates = [
            bound
            for bound in (
                loop_bounds.get(summary.label) if summary.label else None,
                summary.inferred,
            )
            if bound is not None
        ]
        if candidates:
            bounds[header] = min(candidates)
    return bounds


@dataclass
class VerifiedWCET:
    """Annotation-based vs. abstract-interpretation-verified bounds."""

    absint: AbsintResult
    verified: WCETResult
    annotated: WCETResult

    @property
    def verified_cycles(self) -> Optional[int]:
        return self.verified.cycles

    @property
    def annotated_cycles(self) -> Optional[int]:
        return self.annotated.cycles

    @property
    def tightened(self) -> bool:
        return (
            self.verified.cycles is not None
            and self.annotated.cycles is not None
            and self.verified.cycles < self.annotated.cycles
        )


def verified_wcet(
    program: Program,
    annotations: Optional[Annotations] = None,
    entry: int = 0,
    reg_ranges: Optional[Dict[int, Interval]] = None,
    cost_model: Optional[CostModel] = None,
    analysis: Optional[ProgramAnalysis] = None,
    stack_budget: int = DEFAULT_STACK_BUDGET_WORDS,
) -> VerifiedWCET:
    """Annotated and path-pruned/inference-capped WCET bounds.

    The verified bound uses ``min(annotated, inferred)`` per loop and
    excludes edges/nodes the value analysis proved infeasible, so
    ``verified <= annotated`` whenever both exist (same cost model,
    fewer paths, tighter-or-equal bounds).  When the value analysis
    fails, the verified bound falls back to the annotated one.
    """
    analysis = analysis or ProgramAnalysis(program, entry=entry)
    annotations = annotations or Annotations()
    result = analyse(
        program,
        entry=entry,
        reg_ranges=reg_ranges,
        analysis=analysis,
        stack_budget=stack_budget,
    )
    annotated = wcet_bound(
        program,
        loop_bounds=dict(annotations.loop_bounds),
        entry=entry,
        cost_model=cost_model,
        analysis=analysis,
    )
    if not result.ok:
        return VerifiedWCET(absint=result, verified=annotated, annotated=annotated)
    verified = wcet_bound(
        program,
        loop_bounds=bounds_for_wcet(result, annotations),
        entry=entry,
        cost_model=cost_model,
        analysis=analysis,
        exclude_edges=result.infeasible_edges,
        exclude_nodes=result.unreached,
    )
    return VerifiedWCET(absint=result, verified=verified, annotated=annotated)


# -------------------------------------------------------------- kernel audits
#: Loops we expect the inference to bound, per asmlib kernel.  isqrt32's
#: Newton/division loops are data-dependent (not counted); they rely on
#: their annotations.
EXPECTED_COUNTED: Dict[str, Tuple[str, ...]] = {
    "memcpy_words": ("memcpy_loop",),
    "array_sum": ("array_sum_loop",),
    "popcount32": (),
    "crc32_word": ("crc32_bit",),
    "isqrt32": (),
}

_DRIVER_SRC = 0x4000_8000  # driver scratch arrays live here in DDR
_DRIVER_DST = 0x4000_9000
_DRIVER_OUT = 0x4001_0000


def _lcg(seed: int) -> int:
    """One step of a 32-bit LCG (deterministic driver data)."""
    return (seed * 1_664_525 + 1_013_904_223) & MASK32


def _driver_words(seed: int, count: int) -> List[int]:
    words, value = [], (seed * 2_654_435_761 + 1) & MASK32
    for _ in range(count):
        value = _lcg(value)
        words.append(value)
    return words


def kernel_driver_source(kernel: str, seed: int = 1) -> str:
    """A self-contained driver program exercising one asmlib kernel.

    The driver pins concrete arguments (derived from ``seed``), calls
    the routine, stores the result and halts; the data section sits
    after the routines because routines must stay in ``.text``.
    """
    from repro.hw.asmlib import ROUTINES, link_source

    if kernel not in ROUTINES:
        raise KeyError(f"unknown kernel {kernel!r}; available: {sorted(ROUTINES)}")
    n = 4 + (seed * 7) % 29  # 4..32 words
    value = _driver_words(seed, 1)[0]
    if kernel == "memcpy_words":
        main = f"""
    addi r5, r0, {_DRIVER_SRC:#x}
    addi r6, r0, {_DRIVER_DST:#x}
    addi r7, r0, {n}
    brl  r15, memcpy_words
    halt
"""
        data = [f".data {_DRIVER_SRC:#x}", ".word " + " ".join(
            str(w) for w in _driver_words(seed, n))]
    elif kernel == "array_sum":
        main = f"""
    addi r5, r0, {_DRIVER_SRC:#x}
    addi r6, r0, {n}
    brl  r15, array_sum
    swi  r3, r0, {_DRIVER_OUT:#x}
    halt
"""
        data = [f".data {_DRIVER_SRC:#x}", ".word " + " ".join(
            str(w) for w in _driver_words(seed, n))]
    elif kernel == "popcount32":
        main = f"""
    addi r5, r0, {value:#x}
    brl  r15, popcount32
    swi  r3, r0, {_DRIVER_OUT:#x}
    halt
"""
        data = []
    elif kernel == "crc32_word":
        main = f"""
    addi r5, r0, {value:#x}
    addi r6, r0, 0xFFFFFFFF
    brl  r15, crc32_word
    swi  r3, r0, {_DRIVER_OUT:#x}
    halt
"""
        data = []
    else:  # isqrt32: keep the argument small so the division loop is short
        main = f"""
    addi r5, r0, {100 + (seed * 37) % 900}
    brl  r15, isqrt32
    swi  r3, r0, {_DRIVER_OUT:#x}
    halt
"""
        data = []
    return link_source(main, [kernel]) + "\n" + "\n".join(data) + "\n"


@dataclass
class RoutineAudit:
    """Contract-context verdict for one asmlib routine."""

    name: str
    report: LintReport
    result: AbsintResult
    annotations: Annotations

    @property
    def ok(self) -> bool:
        return self.report.ok


def audit_routine(name: str) -> RoutineAudit:
    """Analyse one asmlib routine standalone under its ``#@`` contract.

    Runs the value analysis with the annotated parameter ranges, then
    cross-checks every loop's ``#@ bound`` annotation (ASM101-ASM103)
    and the memory/stack proofs (ASM104/ASM105).
    """
    from repro.hw.asmlib import ROUTINES
    from repro.hw.assembler import assemble

    source = ROUTINES[name]
    annotations = parse_annotations(source)
    program = assemble(source)
    analysis = ProgramAnalysis(program, entry=0)
    result = analyse(
        program, reg_ranges=annotations.reg_ranges, analysis=analysis
    )
    report = LintReport().extend(result.report)
    report.extend(audit_annotation_rules(result, annotations, analysis))
    return RoutineAudit(
        name=name, report=report, result=result, annotations=annotations
    )


@dataclass
class KernelAudit:
    """Measured-vs-verified-vs-annotated verdict for one kernel driver."""

    kernel: str
    seed: int
    measured: int  # executor cycles
    wcet: VerifiedWCET
    loop_executions: Dict[str, int]  # loop label -> measured header visits
    checks: List[Tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def verified_ratio(self) -> Optional[float]:
        if self.wcet.verified_cycles is None or not self.measured:
            return None
        return self.wcet.verified_cycles / self.measured

    @property
    def annotated_ratio(self) -> Optional[float]:
        if self.wcet.annotated_cycles is None or not self.measured:
            return None
        return self.wcet.annotated_cycles / self.measured


def audit_kernel(kernel: str, seed: int = 1) -> KernelAudit:
    """Run one kernel driver and verify the full WCET chain.

    Checks, in order: the value analysis is clean (memory/stack proofs
    hold), every expected counted loop got an inferred bound, measured
    header visits never exceed the inferred bounds, and
    ``measured <= verified WCET <= annotated WCET``.
    """
    from repro.hw.assembler import assemble
    from repro.hw.isa import ISAExecutor
    from repro.hw.soc import SoC, SoCConfig

    source = kernel_driver_source(kernel, seed=seed)
    annotations = parse_annotations(source)
    program = assemble(source)

    soc = SoC(SoCConfig(n_cpus=1))
    executor = ISAExecutor(soc.core(0), program, count_pcs=True)
    soc.sim.process(executor.run())
    soc.sim.run()
    measured = executor.cycles

    analysis = ProgramAnalysis(program, entry=0)
    wcet = verified_wcet(
        program, annotations=annotations, analysis=analysis
    )

    checks: List[Tuple[str, bool, str]] = []
    checks.append(
        (
            "value analysis ok (memory/stack proven)",
            wcet.absint.ok,
            "; ".join(d.rule for d in wcet.absint.report.errors) or "clean",
        )
    )

    loop_executions: Dict[str, int] = {}
    counts = executor.pc_counts or {}
    for label in EXPECTED_COUNTED[kernel]:
        address = program.symbols.get(label)
        header = (address - program.base) // 4 if address is not None else None
        summary = wcet.absint.loops.get(header) if header is not None else None
        inferred = summary.inferred if summary else None
        executed = counts.get(header, 0) if header is not None else 0
        loop_executions[label] = executed
        checks.append(
            (
                f"loop {label}: inferred bound exists",
                inferred is not None,
                f"inferred={inferred}",
            )
        )
        checks.append(
            (
                f"loop {label}: executed <= inferred",
                inferred is not None and executed <= inferred,
                f"executed={executed} inferred={inferred}",
            )
        )

    verified, annotated = wcet.verified_cycles, wcet.annotated_cycles
    checks.append(
        (
            "measured <= verified WCET",
            verified is not None and measured <= verified,
            f"measured={measured} verified={verified}",
        )
    )
    checks.append(
        (
            "verified WCET <= annotated WCET",
            verified is not None
            and annotated is not None
            and verified <= annotated,
            f"verified={verified} annotated={annotated}",
        )
    )
    return KernelAudit(
        kernel=kernel,
        seed=seed,
        measured=measured,
        wcet=wcet,
        loop_executions=loop_executions,
        checks=checks,
    )


def audit_kernels(seeds: Iterable[int] = (1,)) -> List[KernelAudit]:
    """Audit every asmlib kernel across ``seeds`` (sorted by kernel)."""
    return [
        audit_kernel(kernel, seed=seed)
        for kernel in sorted(EXPECTED_COUNTED)
        for seed in seeds
    ]


def format_audit(audits: Sequence[KernelAudit]) -> str:
    """Tightness report: bound/measured ratios per kernel driver."""
    lines = [
        f"{'kernel':<14} {'seed':>4} {'measured':>10} {'verified':>10} "
        f"{'annotated':>10} {'ver/meas':>9} {'ann/meas':>9}  ok"
    ]
    for audit in audits:
        verified = audit.wcet.verified_cycles
        annotated = audit.wcet.annotated_cycles
        ratio_v = f"{audit.verified_ratio:.2f}" if audit.verified_ratio else "-"
        ratio_a = f"{audit.annotated_ratio:.2f}" if audit.annotated_ratio else "-"
        lines.append(
            f"{audit.kernel:<14} {audit.seed:>4} {audit.measured:>10} "
            f"{verified if verified is not None else '-':>10} "
            f"{annotated if annotated is not None else '-':>10} "
            f"{ratio_v:>9} {ratio_a:>9}  {'PASS' if audit.ok else 'FAIL'}"
        )
    tightened = [a.kernel for a in audits if a.wcet.tightened]
    lines.append(
        "strictly tighter verified bounds: "
        + (", ".join(sorted(set(tightened))) if tightened else "none")
    )
    return "\n".join(lines)
