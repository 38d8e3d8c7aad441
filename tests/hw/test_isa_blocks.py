"""Block vs reference ISA interpreter: observable equivalence sweep.

The predecoded basic-block interpreter (``ISAExecutor(mode="block")``)
coalesces core-private instruction runs into single engine events; these
tests pin it bit-for-bit to the per-instruction reference across every asmlib
kernel and every accounting/configuration axis: tracing, pc counting,
cold vs pre-warmed I-cache, and seeded fault plans whose mid-kernel
bit-flips must invalidate and replay in-flight blocks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultEvent, FaultPlan
from repro.hw.asmlib import ROUTINES
from repro.hw.bus import OPBBus
from repro.hw.isa import (
    OPCODES, ISAError, ISAExecutor, Program, Instruction, _ALU_EXPRS,
    _BRANCH_EXPRS,
)
from repro.hw.memory import DDRMemory
from repro.hw.soc import SoC, SoCConfig
from repro.perf.isabench import _probe_bus, observable, run_kernel
from repro.sim import Simulator

KERNELS = sorted(ROUTINES)

#: Small call counts: the sweep runs every kernel ~10 ways.
ITERS = {"memcpy_words": 3, "array_sum": 3, "popcount32": 12,
         "crc32_word": 4, "isqrt32": 4}


def _fault_plan():
    # One memory flip into the shared input array plus one register
    # upset, timed to land mid-run for every kernel in the sweep.
    return FaultPlan(
        seed=11,
        events=[
            FaultEvent(kind="bitflip_memory", time=500,
                       addr=0x4008_0008, arg=7),
            FaultEvent(kind="bitflip_register", time=800, cpu=0),
        ],
    )


VARIANTS = {
    "base": {},
    "trace": {"trace": True},
    "count_pcs": {"count_pcs": True},
    "warm_icache": {"warm_icache": True},
    "faulted": {"trace": True, "plan": _fault_plan},
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_block_matches_reference(kernel, variant):
    kwargs = dict(VARIANTS[variant])
    if "plan" in kwargs:
        kwargs["plan"] = kwargs["plan"]()
    ref = run_kernel(kernel, "reference", iterations=ITERS[kernel], **kwargs)
    blk = run_kernel(kernel, "block", iterations=ITERS[kernel], **kwargs)
    assert observable(ref) == observable(blk)
    assert ref["halted"] and blk["halted"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_pc_counts_identical(kernel):
    """Per-pc execution counts agree and total to the retired count."""
    ref = run_kernel(kernel, "reference", iterations=ITERS[kernel],
                     count_pcs=True)
    blk = run_kernel(kernel, "block", iterations=ITERS[kernel],
                     count_pcs=True)
    assert ref["pc_counts"] == blk["pc_counts"]
    assert sum(ref["pc_counts"].values()) == ref["retired"]
    assert sum(blk["pc_counts"].values()) == blk["retired"]


def test_faulted_compute_kernel_replays_blocks():
    """A fault inside a long coalesced window forces a rollback+replay,
    and the replayed run still matches the reference exactly."""
    plan = FaultPlan(events=[
        FaultEvent(kind="bitflip_register", time=700, cpu=0),
    ])
    ref = run_kernel("crc32_word", "reference", iterations=4, trace=True,
                     plan=plan)
    blk = run_kernel("crc32_word", "block", iterations=4, trace=True,
                     plan=plan)
    assert observable(ref) == observable(blk)
    assert blk["replays"] > 0


#: Block-mode windows, fault replays, engine events and I-cache misses
#: of each kernel at its DEFAULT_ITERS, as the per-block interpreter
#: produced them: running loops in compiled regions moves none of them.
KERNEL_COUNTS = {
    "array_sum": (1604, 0, 4811, 3),
    "crc32_word": (4, 0, 11, 3),
    "isqrt32": (5, 0, 14, 4),
    "memcpy_words": (3204, 0, 9611, 3),
    "popcount32": (4, 0, 11, 3),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_window_counts_pinned(kernel):
    blk = run_kernel(kernel, "block")
    assert (blk["windows"], blk["replays"], blk["events"],
            blk["icache_misses"]) == KERNEL_COUNTS[kernel]


def test_block_mode_run_twice_deterministic():
    first = run_kernel("isqrt32", "block", iterations=3)
    second = run_kernel("isqrt32", "block", iterations=3)
    assert observable(first) == observable(second)


# ----------------------------------------------------------- local BRAM faults
LOCAL_PROGRAM = """
    addi r5, r0, 0x100       # local BRAM scratch address
    addi r6, r0, 200
    addi r7, r0, 0
loop:
    swi  r6, r5, 0
    lwi  r8, r5, 0
    add  r7, r7, r8
    addi r5, r5, 4
    subi r6, r6, 1
    bnez r6, loop
    halt
"""


def _run_local(mode, flip_at=None):
    from repro.hw.assembler import assemble

    soc = SoC(SoCConfig(n_cpus=1))
    program = assemble(LOCAL_PROGRAM)
    core = soc.cores[0]
    if flip_at is not None:
        # Flip a bit of a local word the loop reads back later.
        soc.sim.schedule_at(flip_at,
                            lambda: core.local_mem.flip_bit(0x140, 2))
    executor = ISAExecutor(core, program, mode=mode)
    soc.sim.process(executor.run())
    soc.sim.run()
    return (executor.cycles, soc.sim.now, tuple(executor.state.regs),
            executor.state.pc, executor.data_accesses,
            core.icache.hits, core.icache.misses)


@pytest.mark.parametrize("flip_at", [None, 400, 900])
def test_local_bram_flip_identical(flip_at):
    assert _run_local("reference", flip_at) == _run_local("block", flip_at)


def test_injector_routes_local_bitflips():
    """bitflip_memory with a cpu and a local address hits that core's
    BRAM, not DDR."""
    from types import SimpleNamespace

    from repro.faults.injector import FaultInjector
    from repro.trace.recorder import TraceRecorder

    soc = SoC(SoCConfig(n_cpus=2))
    plan = FaultPlan(events=[
        FaultEvent(kind="bitflip_memory", time=10, cpu=1, addr=0x40, arg=0),
    ])
    kernel_stub = SimpleNamespace(sim=soc.sim, soc=soc, trace=TraceRecorder())
    FaultInjector(kernel_stub, plan).arm()
    soc.sim.run(until=100)
    assert soc.cores[1].local_mem.bitflips == 1
    assert soc.ddr.bitflips == 0
    assert soc.cores[1].local_mem.read_word(0x40) == 1


# ------------------------------------------------------------- error parity
def _run_error(mode, source, max_instructions=1_000_000, data=None):
    from repro.hw.assembler import assemble

    soc = SoC(SoCConfig(n_cpus=1))
    program = assemble(source)
    if data:
        program.data.update(data)
    executor = ISAExecutor(soc.cores[0], program, mode=mode)
    caught = []

    def driver():
        try:
            yield from executor.run(max_instructions)
        except ISAError as exc:
            caught.append(str(exc))

    soc.sim.process(driver())
    soc.sim.run()
    return (caught, executor.cycles, soc.sim.now,
            executor.state.instructions_retired, executor.state.pc)


LOOP_BODY_5 = """
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    xori r4, r3, 5
    add  r5, r4, r3
    nop
    br   loop
"""


@pytest.mark.parametrize("source,budget", [
    ("loop:\n    br loop\n", 50),                       # budget exhausted
    (LOOP_BODY_5, 53),                                   # ... mid-block
    ("    addi r3, r0, 99\n    jr r3\n", 1_000),         # jr past the end
    ("    addi r3, r0, 40\n    addi r4, r3, 2\n    jr r4\n    halt\n",
     1_000),                                             # ... ending a block
    ("    lwi r3, r0, 0x30000000\n    halt\n", 1_000),   # unmapped address
])
def test_errors_identical_across_modes(source, budget):
    ref = _run_error("reference", source, budget)
    blk = _run_error("block", source, budget)
    assert ref == blk
    assert ref[0], "expected an ISAError"


def test_unknown_opcode_rejected_at_predecode():
    soc = SoC(SoCConfig(n_cpus=1))
    program = Program(instructions=[Instruction(op="frobnicate")])
    with pytest.raises(ISAError, match=r"unknown opcode 'frobnicate' at pc=0"):
        ISAExecutor(soc.cores[0], program)


def test_bad_register_rejected_at_predecode():
    soc = SoC(SoCConfig(n_cpus=1))
    program = Program(instructions=[Instruction(op="add", rd=35)])
    with pytest.raises(ISAError, match=r"register r35 out of range at pc=0"):
        ISAExecutor(soc.cores[0], program)


def test_invalid_mode_rejected():
    soc = SoC(SoCConfig(n_cpus=1))
    program = Program(instructions=[Instruction(op="halt")])
    with pytest.raises(ValueError, match="unknown ISA mode 'turbo'"):
        ISAExecutor(soc.cores[0], program, mode="turbo")


def test_block_mode_reports_window_counters():
    blk = run_kernel("popcount32", "block", iterations=5)
    assert blk["windows"] > 0
    assert blk["window_instructions"] == blk["retired"]
    ref = run_kernel("popcount32", "reference", iterations=5)
    assert ref["windows"] == 0
    # The whole point: far fewer engine events for the same work.
    assert blk["events"] < ref["events"] / 5


def test_bus_probe_forwards_batched_transfers():
    sim = Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()
    log = []
    _probe_bus(bus, log)

    def master():
        yield from bus.transfer(0, ddr, 2, count=3)
        yield from bus.transfer(0, ddr, words=1)

    sim.process(master())
    sim.run()
    batch = 3 * ddr.access_latency(2)
    assert log == [
        ("req", 0, 0, 2, 3), ("done", batch, 0, 2, 3),
        ("req", batch, 0, 1), ("done", batch + ddr.access_latency(1), 0, 1),
    ]
    assert bus.stats.transactions == 4


# --------------------------------------------------- random-program property
#: Registers the generated programs use; r15 doubles as the link register.
PROGRAM_REGS = st.sampled_from([0, 1, 2, 3, 4, 15])
IMM = st.one_of(st.sampled_from([0, 1, 31, 32, -1, 0x7FFFFFFF, 0x80000000]),
                st.integers(-2**31, 2**32 - 1))


@st.composite
def _programs(draw):
    """ALU/branch programs with loops, calls and returns, r0
    destinations and a sprinkling of local and DDR data accesses."""
    n = draw(st.integers(2, 24))
    target = st.integers(0, n - 1)
    reg = PROGRAM_REGS
    instruction = st.one_of(
        st.builds(lambda op, rd, ra, rb: Instruction(op, rd, ra, rb),
                  st.sampled_from(sorted(_ALU_EXPRS)), reg, reg, reg),
        st.builds(lambda op, rd, ra, imm: Instruction(op, rd, ra, imm=imm),
                  st.sampled_from(sorted(op for op in OPCODES
                                         if op[:-1] in _ALU_EXPRS)),
                  reg, reg, IMM),
        st.builds(lambda op, rd, imm: Instruction(op, rd, imm=imm),
                  st.sampled_from(sorted(_BRANCH_EXPRS)), reg, target),
        st.builds(lambda imm: Instruction("br", imm=imm), target),
        st.builds(lambda rd, imm: Instruction("brl", rd, imm=imm),
                  reg, target),
        st.builds(lambda rd: Instruction("jr", rd), reg),
        st.just(Instruction("nop")),
        st.builds(lambda op, rd, addr: Instruction(op, rd, 0, imm=addr),
                  st.sampled_from(["lwi", "swi"]), reg,
                  st.sampled_from([0x100, 0x104, 0x4008_0000])),
        st.just(Instruction("halt")),
    )
    return Program(instructions=draw(st.lists(instruction, min_size=n,
                                              max_size=n)))


@st.composite
def _loops(draw):
    """A counted loop (counter r5, which the body never touches) around
    a random core-private body, so one region runs many iterations.
    The body's branches stay in the loop; the tail halts, or leaves
    through a ``jr`` to the loop head, past the program's end or to a
    random register's value."""
    body_len = draw(st.integers(1, 10))
    top = 2 + body_len  # pc of the loop's closing bnez
    reg = PROGRAM_REGS
    inner = st.integers(1, top)
    instruction = st.one_of(
        st.builds(lambda op, rd, ra, rb: Instruction(op, rd, ra, rb),
                  st.sampled_from(sorted(_ALU_EXPRS)), reg, reg, reg),
        st.builds(lambda op, rd, ra, imm: Instruction(op, rd, ra, imm=imm),
                  st.sampled_from(sorted(op for op in OPCODES
                                         if op[:-1] in _ALU_EXPRS)),
                  reg, reg, IMM),
        st.builds(lambda op, rd, imm: Instruction(op, rd, imm=imm),
                  st.sampled_from(sorted(_BRANCH_EXPRS)), reg, inner),
        st.just(Instruction("nop")),
    )
    body = draw(st.lists(instruction, min_size=body_len, max_size=body_len))
    tail = draw(st.sampled_from(["halt", "head", "past", "register"]))
    exits = {
        "halt": [Instruction("halt")],
        "head": [Instruction("addi", 3, 0, imm=1), Instruction("jr", 3)],
        "past": [Instruction("addi", 3, 0, imm=top + 40),
                 Instruction("jr", 3)],
        "register": [Instruction("jr", draw(reg))],
    }[tail]
    return Program(instructions=[
        Instruction("addi", 5, 0, imm=draw(st.integers(1, 40)))] + body + [
        Instruction("subi", 5, 5, imm=1),
        Instruction("bnez", 5, imm=1)] + exits)


def _run_program(mode, program, budget, warm):
    """Observable end state of ``program`` on a 2-line, 2-word I-cache."""
    soc = SoC(SoCConfig(n_cpus=1, icache_lines=2, icache_line_words=2))
    core = soc.cores[0]
    if warm:
        for index in range(len(program)):
            core.icache.fill_line(program.address_of(index))
    bus_log: list = []
    _probe_bus(soc.bus, bus_log)
    executor = ISAExecutor(core, program, mode=mode)
    caught = []

    def driver():
        try:
            yield from executor.run(budget)
        except ISAError as exc:
            caught.append(str(exc))

    soc.sim.process(driver())
    soc.sim.run()
    state = executor.state
    return {
        "error": caught, "cycles": executor.cycles, "now": soc.sim.now,
        "retired": state.instructions_retired, "pc": state.pc,
        "halted": state.halted, "regs": tuple(state.regs),
        "icache_hits": core.icache.hits, "icache_misses": core.icache.misses,
        "executor_misses": executor.icache_misses,
        "data_accesses": executor.data_accesses, "bus_log": tuple(bus_log),
    }


@settings(max_examples=250, deadline=None)
@given(program=st.one_of(_programs(), _loops()),
       budget=st.integers(1, 600), warm=st.booleans())
def test_random_programs_match_reference(program, budget, warm):
    """Loops run many iterations inside one compiled region, budgets end
    mid-iteration, conflict misses on the 2-line I-cache land in chained
    blocks and ``jr`` leaves a region for anywhere, and the end state
    still equals the reference bit for bit."""
    ref = _run_program("reference", program, budget, warm)
    blk = _run_program("block", program, budget, warm)
    assert blk == ref


@pytest.mark.parametrize("budget", [10_000, 100])
@pytest.mark.parametrize("warm", [False, True])
def test_run_longer_than_one_block_matches_reference(budget, warm):
    """A straight-line run past the block size cap, on the 2-line
    I-cache: blocks chain at the cap and refill at every line."""
    body = [Instruction("addi", rd=1 + i % 4, ra=1 + (i + 1) % 4, imm=i)
            for i in range(150)]
    program = Program(instructions=body + [Instruction("halt")])
    ref = _run_program("reference", program, budget, warm)
    assert _run_program("block", program, budget, warm) == ref
