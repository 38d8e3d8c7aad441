"""Static analysis of assembled MicroBlaze-subset programs.

Three layers over one control-flow graph:

1. **CFG construction** from a :class:`~repro.hw.isa.Program`.
   ``brl`` sites are treated as calls (the analysis is unit-based:
   the main program plus one unit per called routine), ``jr`` as a
   return/exit, so the leaf-routine calling convention of
   :mod:`repro.hw.asmlib` is analysed interprocedurally without a
   whole-program product graph.
2. **Definite-initialization dataflow** (the forward all-paths dual of
   reaching definitions) flagging reads of registers that some path
   leaves unwritten, plus structural checks: unreachable code,
   fall-through past the end, branch targets outside the program and
   absolute memory immediates outside the memory map.
3. **Static WCET upper bound**: longest path over the loop-contracted
   CFG, with user-supplied iteration bounds per loop-header label and a
   pessimistic per-instruction cost model (every fetch misses the
   I-cache, every access goes to uncontended DDR, every branch pays the
   flush).  The bound is therefore always >= the cycle count measured
   by :class:`~repro.hw.isa.ISAExecutor` on a single-master bus.

Rule codes ``ASM001``-``ASM008`` are catalogued in ``docs/LINT.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.hw.cache import DirectMappedICache
from repro.hw.isa import BRANCH_PENALTY, Instruction, Program
from repro.hw.memory import DDRMemory, LocalBRAM, SharedBRAM
from repro.lint.diagnostics import LintReport, Severity

#: Conditional branches: test rd, fall through when the test fails.
COND_BRANCHES = frozenset({"beqz", "bnez", "bltz", "blez", "bgtz", "bgez"})
#: 3-register ALU ops (read ra, rb; write rd).
ALU_RRR = frozenset(
    {"add", "sub", "rsub", "mul", "and", "or", "xor", "sll", "srl", "sra", "cmp"}
)
#: Register-immediate ALU ops (read ra; write rd).
ALU_RRI = frozenset(
    {"addi", "subi", "muli", "andi", "ori", "xori", "slli", "srli", "srai"}
)

#: Registers the asmlib calling convention defines at routine entry:
#: arguments r5..r7 and the brl-written return address r15.
CALLING_CONVENTION_PARAMS: Tuple[int, ...] = (5, 6, 7, 15)


@dataclass(frozen=True)
class MemoryRegion:
    """One statically known address range (for absolute-immediate checks)."""

    name: str
    base: int
    size: int

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


def default_memory_map() -> Tuple[MemoryRegion, ...]:
    """The SoC's default regions: local BRAM, boot BRAM, DDR."""
    local = LocalBRAM(0)
    boot = SharedBRAM()
    ddr = DDRMemory()
    return (
        MemoryRegion("local-bram", local.base, local.size),
        MemoryRegion("boot-bram", boot.base, boot.size),
        MemoryRegion("ddr", ddr.base, ddr.size),
    )


# --------------------------------------------------------------- register use
def regs_read(instr: Instruction) -> Set[int]:
    """Architectural registers the instruction reads."""
    op = instr.op
    if op in ALU_RRR:
        return {instr.ra, instr.rb}
    if op in ALU_RRI:
        return {instr.ra}
    if op == "lw":
        return {instr.ra, instr.rb}
    if op == "lwi":
        return {instr.ra}
    if op == "sw":
        return {instr.rd, instr.ra, instr.rb}
    if op == "swi":
        return {instr.rd, instr.ra}
    if op in COND_BRANCHES or op == "jr":
        return {instr.rd}
    return set()


def regs_written(instr: Instruction) -> Set[int]:
    """Architectural registers the instruction writes."""
    op = instr.op
    if op in ALU_RRR or op in ALU_RRI or op in ("lw", "lwi", "brl"):
        return {instr.rd}
    return set()


# ------------------------------------------------------------------ cost model
@dataclass(frozen=True)
class CostModel:
    """Pessimistic per-instruction cycle costs for the WCET bound.

    Defaults mirror the executor's worst case on an uncontended bus:
    1 base cycle, a full I-cache line refill from DDR on every fetch,
    an uncached single-word DDR transaction per load/store, and the
    taken-branch pipeline flush on every control transfer.
    """

    base: int = 1
    branch_penalty: int = BRANCH_PENALTY
    fetch_miss: int = DDRMemory().access_latency(DirectMappedICache(0).line_words)
    data_access: int = DDRMemory().access_latency(1)

    def cost(self, instr: Instruction) -> int:
        cycles = self.base + self.fetch_miss
        if instr.op in ("lw", "lwi", "sw", "swi"):
            cycles += self.data_access
        if instr.op in COND_BRANCHES or instr.op in ("br", "brl", "jr"):
            cycles += self.branch_penalty
        return cycles


# ------------------------------------------------------------------------- CFG
@dataclass
class Unit:
    """One analysis unit: the main program or a called routine."""

    entry: int
    nodes: Set[int] = field(default_factory=set)
    succs: Dict[int, List[int]] = field(default_factory=dict)
    preds: Dict[int, List[int]] = field(default_factory=dict)
    calls: Dict[int, int] = field(default_factory=dict)  # call site -> callee entry
    exits: Set[int] = field(default_factory=set)  # halt / jr sites


class ProgramAnalysis:
    """CFG + call graph of a program, shared by the lint and WCET passes."""

    def __init__(self, program: Program, entry: int = 0):
        self.program = program
        self.entry = entry
        self.report = LintReport()
        self.units: Dict[int, Unit] = {}
        self.recursive = False
        self._label_at = self._index_labels()
        if not 0 <= entry < len(program.instructions):
            self.report.add(
                "ASM005",
                Severity.ERROR,
                f"entry index {entry} is outside the program "
                f"({len(program.instructions)} instruction(s))",
                hint="the program must contain at least one instruction at the entry",
            )
            self.units[entry] = Unit(entry=entry)
            self._order = [self.units[entry]]
            return
        self._build_units()
        self._order = self._call_order()

    # ------------------------------------------------------------- locations
    def _index_labels(self) -> Dict[int, str]:
        """instruction index -> label name, from the symbol table."""
        base, n = self.program.base, len(self.program.instructions)
        labels: Dict[int, str] = {}
        for name, addr in self.program.symbols.items():
            if addr >= base and (addr - base) % 4 == 0:
                index = (addr - base) // 4
                if 0 <= index < n:
                    labels.setdefault(index, name)
        return labels

    def location(self, index: int) -> str:
        """Readable position: pc, source line and nearest label."""
        parts = [f"pc {index}"]
        lines = getattr(self.program, "lines", None)
        if lines and 0 <= index < len(lines):
            parts.insert(0, f"line {lines[index]}")
        for back in range(index, -1, -1):
            if back in self._label_at:
                offset = index - back
                suffix = f"+{offset}" if offset else ""
                parts.append(f"{self._label_at[back]}{suffix}")
                break
        return ", ".join(parts)

    def label_of(self, index: int) -> Optional[str]:
        return self._label_at.get(index)

    # ------------------------------------------------------------ CFG build
    def _successors(self, index: int) -> Tuple[List[int], Optional[int], bool]:
        """(intra-unit successors, call target, is_exit) of one site."""
        instr = self.program.instructions[index]
        n = len(self.program.instructions)
        op = instr.op
        if op == "halt" or op == "jr":
            return [], None, True
        succs: List[int] = []
        call: Optional[int] = None

        def target_ok(target: int) -> bool:
            if 0 <= target < n:
                return True
            self.report.add(
                "ASM005",
                Severity.ERROR,
                f"{op} targets instruction {target}, outside the program (0..{n - 1})",
                location=self.location(index),
                hint="branch/call targets must be labels inside .text",
            )
            return False

        if op == "br":
            if target_ok(instr.imm):
                succs.append(instr.imm)
            return succs, None, False
        if op == "brl":
            if target_ok(instr.imm):
                call = instr.imm
        elif op in COND_BRANCHES:
            if target_ok(instr.imm):
                succs.append(instr.imm)
        # fall-through edge (everything except halt/jr/br)
        if index + 1 < n:
            succs.append(index + 1)
        else:
            self.report.add(
                "ASM003",
                Severity.ERROR,
                f"control falls past the end of the program after {op!r}",
                location=self.location(index),
                hint="end every path with halt (or jr in a routine)",
            )
        return succs, call, False

    def _build_units(self) -> None:
        pending = [self.entry]
        while pending:
            entry = pending.pop()
            if entry in self.units:
                continue
            unit = Unit(entry=entry)
            self.units[entry] = unit
            worklist = [entry]
            while worklist:
                index = worklist.pop()
                if index in unit.nodes:
                    continue
                unit.nodes.add(index)
                succs, call, is_exit = self._successors(index)
                unit.succs[index] = succs
                if is_exit:
                    unit.exits.add(index)
                if call is not None:
                    unit.calls[index] = call
                    if call not in self.units:
                        pending.append(call)
                for succ in succs:
                    unit.preds.setdefault(succ, []).append(index)
                    worklist.append(succ)

    def _call_order(self) -> List[Unit]:
        """Units in callee-before-caller order; flags recursion (ASM008)."""
        order: List[Unit] = []
        state: Dict[int, int] = {}  # 0 visiting, 1 done

        def visit(entry: int, stack: Tuple[int, ...]) -> None:
            if state.get(entry) == 1:
                return
            if state.get(entry) == 0:
                self.recursive = True
                self.report.add(
                    "ASM008",
                    Severity.ERROR,
                    "recursive call cycle: "
                    + " -> ".join(self.label_of(e) or f"pc {e}" for e in stack + (entry,)),
                    location=self.location(entry),
                    hint="the leaf-routine convention (brl/jr, no stack) cannot recurse",
                )
                return
            state[entry] = 0
            for callee in self.units[entry].calls.values():
                visit(callee, stack + (entry,))
            state[entry] = 1
            order.append(self.units[entry])

        visit(self.entry, ())
        # units discovered but unreachable through a non-recursive chain
        for entry in self.units:
            if state.get(entry) != 1:
                state[entry] = 1
                order.insert(0, self.units[entry])
        return order

    @property
    def reachable(self) -> Set[int]:
        covered: Set[int] = set()
        for unit in self.units.values():
            covered |= unit.nodes
        return covered


# ----------------------------------------------------------------- lint pass
def _full_regs() -> FrozenSet[int]:
    return frozenset(range(32))


def _solve_definite(
    unit: Unit,
    entry_set: FrozenSet[int],
    transfer: Dict[int, FrozenSet[int]],
) -> Dict[int, FrozenSet[int]]:
    """All-paths forward dataflow: IN[n] = meet(OUT[preds]), OUT = IN | gen.

    Returns the IN set per node.  ``transfer`` maps node -> generated
    (definitely written) registers, call effects already folded in.
    """
    full = _full_regs()
    in_sets: Dict[int, FrozenSet[int]] = {n: full for n in unit.nodes}
    in_sets[unit.entry] = entry_set
    worklist = list(unit.nodes)
    while worklist:
        node = worklist.pop()
        preds = [p for p in unit.preds.get(node, []) if p in unit.nodes]
        if node == unit.entry:
            new_in = entry_set
        elif preds:
            new_in = full
            for pred in preds:
                new_in = new_in & (in_sets[pred] | transfer[pred])
        else:  # unreachable within unit (defensive)
            new_in = full
        if new_in != in_sets[node]:
            in_sets[node] = new_in
            worklist.extend(unit.succs.get(node, []))
    return in_sets


def _parse_params(params: Iterable[Union[int, str]]) -> FrozenSet[int]:
    resolved: Set[int] = set()
    for param in params:
        if isinstance(param, str):
            param = int(param.lower().lstrip("r"))
        if not 0 <= param < 32:
            raise ValueError(f"parameter register r{param} out of range")
        resolved.add(param)
    return frozenset(resolved)


def lint_program(
    program: Program,
    entry: int = 0,
    params: Iterable[Union[int, str]] = (),
    memory_map: Optional[Sequence[MemoryRegion]] = None,
    analysis: Optional[ProgramAnalysis] = None,
) -> LintReport:
    """Run the structural and dataflow checks; returns a report.

    ``params`` lists registers assumed initialized at ``entry`` (e.g.
    :data:`CALLING_CONVENTION_PARAMS` when linting an asmlib routine on
    its own).  ``memory_map`` overrides the default SoC regions for the
    absolute-address check.
    """
    analysis = analysis or ProgramAnalysis(program, entry=entry)
    report = LintReport().extend(analysis.report)
    instructions = program.instructions
    regions = tuple(memory_map) if memory_map is not None else default_memory_map()
    entry_params = _parse_params(params)

    # --- per-site structural checks over reachable code
    for index in sorted(analysis.reachable):
        instr = instructions[index]
        if instr.op in ("lwi", "swi") and instr.ra == 0:
            addr = instr.imm
            if addr % 4:
                report.add(
                    "ASM004",
                    Severity.ERROR,
                    f"absolute address {addr:#x} is not word aligned",
                    location=analysis.location(index),
                    hint="word loads/stores need 4-byte aligned addresses",
                )
            elif not any(region.contains(addr) for region in regions):
                names = ", ".join(
                    f"{r.name}=[{r.base:#x},{r.base + r.size:#x})" for r in regions
                )
                report.add(
                    "ASM004",
                    Severity.ERROR,
                    f"absolute address {addr:#x} maps to no memory region ({names})",
                    location=analysis.location(index),
                    hint="use a .data label or an address inside the memory map",
                )
        if 0 in regs_written(instr):
            report.add(
                "ASM007",
                Severity.WARNING,
                f"{instr.op} writes r0; the result is discarded (r0 is hardwired to zero)",
                location=analysis.location(index),
                hint="target a real register, or use nop if the value is unused",
            )

    # --- unreachable code (grouped into contiguous runs)
    covered = analysis.reachable
    run_start: Optional[int] = None
    for index in range(len(instructions) + 1):
        dead = index < len(instructions) and index not in covered
        if dead and run_start is None:
            run_start = index
        elif not dead and run_start is not None:
            span = (
                f"pc {run_start}..{index - 1}" if index - 1 > run_start else f"pc {run_start}"
            )
            report.add(
                "ASM002",
                Severity.WARNING,
                f"unreachable code ({span}, {index - run_start} instruction(s))",
                location=analysis.location(run_start),
                hint="delete it, or add a branch/call that reaches it",
            )
            run_start = None

    # --- definite-initialization dataflow (interprocedural via summaries)
    if not analysis.recursive:
        # bottom-up: definitely-written summary per unit
        summaries: Dict[int, FrozenSet[int]] = {}
        for unit in analysis._order:
            transfer = {}
            for node in unit.nodes:
                gen = set(regs_written(instructions[node]))
                if node in unit.calls:
                    gen |= summaries.get(unit.calls[node], frozenset())
                transfer[node] = frozenset(gen)
            in_sets = _solve_definite(unit, frozenset(), transfer)
            if unit.exits:
                summary = _full_regs()
                for exit_node in unit.exits:
                    summary = summary & (in_sets[exit_node] | transfer[exit_node])
            else:  # never returns; vacuously defines everything
                summary = _full_regs()
            summaries[unit.entry] = summary

        # top-down: entry sets per unit (callers before callees)
        entry_sets: Dict[int, FrozenSet[int]] = {
            analysis.entry: frozenset({0}) | entry_params
        }
        flagged: Set[Tuple[int, int]] = set()
        for unit in reversed(analysis._order):
            entry_set = entry_sets.get(unit.entry)
            if entry_set is None:  # callee never reached from a live call site
                entry_set = frozenset({0})
            transfer = {}
            for node in unit.nodes:
                gen = set(regs_written(instructions[node]))
                if node in unit.calls:
                    gen |= summaries.get(unit.calls[node], frozenset())
                transfer[node] = frozenset(gen)
            in_sets = _solve_definite(unit, entry_set, transfer)
            for node in sorted(unit.nodes):
                instr = instructions[node]
                for reg in sorted(regs_read(instr) - in_sets[node] - {0}):
                    if (node, reg) in flagged:
                        continue
                    flagged.add((node, reg))
                    report.add(
                        "ASM001",
                        Severity.ERROR,
                        f"{instr.op} reads r{reg}, which is not initialized on every path",
                        location=analysis.location(node),
                        hint=f"write r{reg} before this point (or declare it a parameter)",
                    )
            # propagate call-site states into callee entry assumptions
            for site, callee in unit.calls.items():
                at_call = in_sets[site] | {instructions[site].rd}
                previous = entry_sets.get(callee)
                entry_sets[callee] = (
                    at_call if previous is None else previous & at_call
                )

    return report


# ------------------------------------------------------------------ WCET pass
@dataclass
class WCETResult:
    """Outcome of the static WCET pass.

    ``cycles`` is ``None`` when the bound does not exist (missing loop
    bound, recursion, or a structural error); the report says why.
    ``per_unit`` maps unit entry index -> that unit's bound.
    """

    cycles: Optional[int]
    report: LintReport
    per_unit: Dict[int, int] = field(default_factory=dict)

    @property
    def bounded(self) -> bool:
        return self.cycles is not None


def _strongly_connected(
    nodes: Set[int], succs: Dict[int, List[int]]
) -> List[List[int]]:
    """Iterative Tarjan; components in reverse topological order."""
    index_of: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[List[int]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = [s for s in succs.get(node, []) if s in nodes]
            advanced = False
            for next_i in range(child_i, len(children)):
                child = children[next_i]
                if child not in index_of:
                    work.append((node, next_i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def _longest_path(
    nodes: Set[int],
    entry: int,
    succs: Dict[int, List[int]],
    node_cost: Dict[int, int],
    bounds: Dict[Union[str, int], int],
    analysis: ProgramAnalysis,
    report: LintReport,
) -> Optional[int]:
    """Longest entry-anywhere path with loops contracted by their bounds."""
    components = _strongly_connected(nodes, succs)
    comp_of: Dict[int, int] = {}
    for comp_id, members in enumerate(components):
        for member in members:
            comp_of[member] = comp_id

    comp_cost: List[Optional[int]] = [None] * len(components)
    for comp_id, members in enumerate(components):
        member_set = set(members)
        cyclic = len(members) > 1 or any(
            node in succs.get(node, []) for node in members
        )
        if not cyclic:
            comp_cost[comp_id] = node_cost[members[0]]
            continue
        # loop headers: entered from outside the component (or the entry)
        headers = {
            node
            for node in members
            if node == entry
            or any(
                pred not in member_set
                for pred, outs in succs.items()
                if node in outs and pred in nodes
            )
        }
        if len(headers) != 1:
            report.add(
                "ASM006",
                Severity.ERROR,
                f"irreducible loop with {len(headers)} entry points "
                f"({', '.join(analysis.location(h) for h in sorted(headers))})",
                location=analysis.location(min(members)),
                hint="restructure so each loop has a single labelled header",
            )
            return None
        header = headers.pop()
        label = analysis.label_of(header)
        bound = bounds.get(label) if label is not None else None
        if bound is None:
            bound = bounds.get(header)
        if bound is None:
            report.add(
                "ASM006",
                Severity.ERROR,
                f"loop at {analysis.location(header)} has no iteration bound",
                location=analysis.location(header),
                hint=(
                    f"pass loop_bounds={{{label or header}!r: N}} with the "
                    "maximum iteration count"
                ),
            )
            return None
        if bound < 1:
            report.add(
                "ASM006",
                Severity.ERROR,
                f"loop bound {bound} for {label or header} must be >= 1",
                location=analysis.location(header),
            )
            return None
        inner_succs = {
            node: [s for s in succs.get(node, []) if s in member_set and s != header]
            for node in members
        }
        inner = _longest_path(
            member_set, header, inner_succs, node_cost, bounds, analysis, report
        )
        if inner is None:
            return None
        comp_cost[comp_id] = bound * inner

    # condensation longest path (components arrive in reverse topo order)
    dist: List[Optional[int]] = [None] * len(components)
    entry_comp = comp_of[entry]
    dist[entry_comp] = comp_cost[entry_comp]
    best = dist[entry_comp] or 0
    for comp_id in range(len(components) - 1, -1, -1):
        if dist[comp_id] is None:
            continue
        best = max(best, dist[comp_id])
        for node in components[comp_id]:
            for succ in succs.get(node, []):
                if succ not in nodes:
                    continue
                succ_comp = comp_of[succ]
                if succ_comp == comp_id:
                    continue
                candidate = dist[comp_id] + comp_cost[succ_comp]
                if dist[succ_comp] is None or candidate > dist[succ_comp]:
                    dist[succ_comp] = candidate
    return best


def wcet_bound(
    program: Program,
    loop_bounds: Optional[Dict[Union[str, int], int]] = None,
    entry: int = 0,
    cost_model: Optional[CostModel] = None,
    analysis: Optional[ProgramAnalysis] = None,
    *,
    exclude_edges: Optional[Iterable[Tuple[int, int]]] = None,
    exclude_nodes: Optional[Iterable[int]] = None,
) -> WCETResult:
    """Static WCET upper bound of ``program`` from ``entry``.

    ``loop_bounds`` maps loop-header labels (or instruction indices) to
    maximum iteration counts; every cycle in the CFG needs one.  The
    result is an upper bound on :class:`~repro.hw.isa.ISAExecutor`
    cycles for any execution respecting those bounds, assuming an
    uncontended bus (single master).

    ``exclude_edges``/``exclude_nodes`` drop CFG edges and nodes a
    value analysis (:mod:`repro.lint.absint`) proved infeasible before
    the longest-path computation; a unit whose entry is excluded never
    runs and contributes 0 cycles.
    """
    analysis = analysis or ProgramAnalysis(program, entry=entry)
    report = LintReport().extend(analysis.report)
    model = cost_model or CostModel()
    bounds = dict(loop_bounds or {})
    dead_edges = frozenset(exclude_edges or ())
    dead_nodes = frozenset(exclude_nodes or ())

    if analysis.recursive:
        return WCETResult(cycles=None, report=report)
    if not report.ok:  # structural errors (ASM003/ASM005) void the bound
        return WCETResult(cycles=None, report=report)

    per_unit: Dict[int, int] = {}
    failed = False
    for unit in analysis._order:  # callees first
        nodes = unit.nodes - dead_nodes
        if unit.entry in dead_nodes or not nodes:
            per_unit[unit.entry] = 0  # unit proven unreachable: never runs
            continue
        succs = {
            node: [
                succ
                for succ in unit.succs.get(node, [])
                if succ in nodes and (node, succ) not in dead_edges
            ]
            for node in nodes
        }
        node_cost: Dict[int, int] = {}
        for node in nodes:
            cost = model.cost(program.instructions[node])
            if node in unit.calls:
                callee_cycles = per_unit.get(unit.calls[node])
                if callee_cycles is None:
                    failed = True
                    break
                cost += callee_cycles
            node_cost[node] = cost
        if failed:
            break
        unit_cycles = _longest_path(
            nodes, unit.entry, succs, node_cost, bounds, analysis, report
        )
        if unit_cycles is None:
            failed = True
            break
        per_unit[unit.entry] = unit_cycles

    if failed:
        return WCETResult(cycles=None, report=report, per_unit=per_unit)
    return WCETResult(
        cycles=per_unit[analysis.entry], report=report, per_unit=per_unit
    )


def lint_source(
    source: str,
    params: Iterable[Union[int, str]] = (),
    text_base: int = 0x4000_0000,
) -> LintReport:
    """Assemble then lint; assembler errors become ASM000 diagnostics."""
    from repro.hw.assembler import AssemblerError, assemble

    try:
        program = assemble(source, text_base=text_base)
    except AssemblerError as exc:
        report = LintReport()
        report.add(
            "ASM000",
            Severity.ERROR,
            str(exc),
            hint="fix the assembly syntax/linkage error first",
        )
        return report
    return lint_program(program, params=params)
