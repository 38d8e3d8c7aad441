"""Block vs reference ISA interpreter: observable equivalence sweep.

The predecoded basic-block interpreter (``ISAExecutor(mode="block")``)
coalesces core-private instruction runs into single engine events; these
tests pin it bit-for-bit to the per-instruction reference across every asmlib
kernel and every accounting/configuration axis: tracing, pc counting,
cold vs pre-warmed I-cache, and seeded fault plans whose mid-kernel
bit-flips must invalidate and replay in-flight blocks.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultEvent, FaultPlan
from repro.hw.asmlib import ROUTINES, link
from repro.hw.assembler import assemble
from repro.hw import isa
from repro.hw.bus import OPBBus
from repro.hw.isa import (
    OPCODES, ISAError, ISAExecutor, Program, Instruction, _ALU_EXPRS,
    _BRANCH_EXPRS, _compile_regions, _memory_map,
)
from repro.hw.memory import DDRMemory, LocalBRAM, MemoryError_
from repro.hw.microblaze import MicroBlaze
from repro.hw.soc import SoC, SoCConfig
from repro.perf.isabench import (
    DATA_BASE, DATA_WORDS, KERNEL_DRIVERS, _driver, _probe_bus, bus_stats,
    observable, run_kernel,
)
from repro.sim import Simulator
from repro.trace.recorder import TraceRecorder

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
#: of each kernel at its DEFAULT_ITERS.  On a lone core every DDR access
#: plays in place on the quiet bus, so the DDR-bound kernels end a
#: window only at an I-cache refill or halt, as the ALU-bound ones do.
KERNEL_COUNTS = {
    "array_sum": (4, 0, 11, 3),
    "crc32_word": (4, 0, 11, 3),
    "isqrt32": (5, 0, 14, 4),
    "memcpy_words": (4, 0, 11, 3),
    "popcount32": (4, 0, 11, 3),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_window_counts_pinned(kernel):
    blk = run_kernel(kernel, "block")
    assert (blk["windows"], blk["replays"], blk["events"],
            blk["icache_misses"]) == KERNEL_COUNTS[kernel]


@pytest.mark.parametrize("kernel", ["array_sum", "memcpy_words"])
def test_ddr_kernels_play_their_accesses_inside_regions(kernel, monkeypatch):
    """On a lone core the regions of a DDR-bound kernel play its accesses
    themselves: a run at ``DEFAULT_ITERS`` calls the compiled regions no
    more often than it has windows and I-cache refills, where leaving the
    region at each access would call one per access."""
    calls = []
    define = isa._define

    def counted(name, params, body):
        function = define(name, params, body)

        def call(*args):
            calls.append(name)
            return function(*args)

        return call

    monkeypatch.setattr(isa, "_define", counted)
    _driver.cache_clear()  # compile this run's regions afresh
    try:
        blk = run_kernel(kernel, "block")
    finally:
        _driver.cache_clear()
    assert blk["data_accesses"] >= 1_600
    assert 0 < len(calls) <= blk["windows"] + blk["icache_misses"]


def test_block_mode_run_twice_deterministic():
    """The second run reuses the linked driver, with its decoded form
    and compiled regions, and observes the same as the first."""
    _driver.cache_clear()
    first = run_kernel("isqrt32", "block", iterations=3)
    second = run_kernel("isqrt32", "block", iterations=3)
    assert observable(first) == observable(second)
    assert _driver.cache_info().hits == 1


# ------------------------------------------------- DDR accesses in place
def _schedule_foreign(soc, foreign):
    """Schedule ``foreign`` on the SoC: ``(instant, "stall", cycles)``
    starts a foreign bus user at that instant, a ``bus.stall(cycles)``
    process that holds the bus; ``(instant, "flip", addr)`` flips a bit
    of that DDR word; ``(instant, "upset", cpu)`` upsets that core's
    register file."""
    if foreign is None:
        return
    instant, kind, arg = foreign
    if kind == "stall":
        soc.sim.schedule_at(
            instant, lambda: soc.sim.process(soc.bus.stall(arg)))
    elif kind == "upset":
        soc.sim.schedule_at(instant, soc.cores[arg].register_upset)
    else:
        soc.sim.schedule_at(instant, lambda: soc.ddr.flip_bit(arg, 5))


def _run_cores(mode, kernels, foreign=None, until=None):
    """Run one asmlib driver per core, ``kernels`` a list of ``(name,
    iterations)``, and return what every core and the bus show.

    ``foreign`` is scheduled by :func:`_schedule_foreign`.  With
    ``until`` the run stops there; the result also holds the state when
    it then runs to completion, under ``"finished"``.
    """
    soc = SoC(SoCConfig(n_cpus=len(kernels)))
    bus_log: list = []
    _probe_bus(soc.bus, bus_log)
    played = []
    credit = soc.bus.credit

    def counted(master, target, starts, words=1):
        played.extend([master] * len(starts))
        return credit(master, target, starts, words)

    soc.bus.credit = counted
    trace = TraceRecorder()
    executors = []
    for core, (name, iters) in zip(soc.cores, kernels):
        program = link(KERNEL_DRIVERS[name].format(iters=iters), [name])
        for i in range(DATA_WORDS):
            program.data[DATA_BASE + 4 * i] = 0x0101 * (i + 1)
        executor = ISAExecutor(core, program, trace=trace, mode=mode)
        soc.sim.process(executor.run())
        executors.append(executor)
    _schedule_foreign(soc, foreign)

    def snapshot():
        return {
            "now": soc.sim.now,
            "cores": [(e.cycles, e.state.pc, tuple(e.state.regs),
                       e.state.instructions_retired, e.data_accesses,
                       e.core.icache.hits, e.core.icache.misses)
                      for e in executors],
            "ddr": sorted(soc.ddr._words.items()),
            "bus_log": tuple(bus_log),
            "bus_stats": bus_stats(soc.bus.stats),
            "trace": [(e.time, e.cpu, e.info) for e in trace.events],
        }

    soc.sim.run(until)
    result = snapshot()
    if until is not None:
        soc.sim.run()
        result["finished"] = snapshot()
    result["played"] = len(played)
    result["replays"] = sum(e.replays for e in executors)
    return result


def _without_diagnostics(result):
    return {k: v for k, v in result.items() if k not in ("played", "replays")}


def test_two_cores_play_in_place_and_arbitrate():
    """Two DDR-bound kernels share the bus: an access plays in place
    only while the other core cannot reach the bus before it ends, and
    the bus log, per-master stats, trace and memory equal the
    reference's."""
    kernels = [("memcpy_words", 3), ("array_sum", 4)]
    ref = _run_cores("reference", kernels)
    blk = _run_cores("block", kernels)
    assert _without_diagnostics(blk) == _without_diagnostics(ref)
    accesses = sum(core[4] for core in blk["cores"])
    assert 0 < blk["played"] < accesses
    assert ref["played"] == 0
    _, _, waits, by_master, _ = blk["bus_stats"]
    assert [master for master, _ in by_master] == [0, 1]
    assert any(wait for _, wait in waits)


def _memcpy_accesses():
    """End instant, address and op of each DDR access of memcpy_words
    at three iterations, from the reference trace."""
    ref = _run_cores("reference", [("memcpy_words", 3)])
    return [(time, int(info.split()[0][5:], 16), info.split()[1][3:])
            for time, _, info in ref["trace"]]


@pytest.mark.parametrize("offset", [-1, 0, 1, 3])
def test_fault_in_a_merged_memcpy_window(offset):
    """A DDR bit flip lands around the end of a load of the last
    iteration, on the word it reads, or in the core-private stretch
    after the store behind it, on the word the next load reads, so the
    copy shows which value each load saw.  At the tie (``offset`` 0) the
    load is not played in place and reads the flipped word, as in the
    reference.  Past the store the flip breaks a window that played
    accesses in place and replays it only from past the last one."""
    accesses = _memcpy_accesses()
    end, addr, op = accesses[72]
    assert op == "read" and accesses[73][2] == "write"
    if offset > 0:
        end, addr = accesses[73][0], addr + 4
    flip = (end + offset, "flip", addr)
    ref = _run_cores("reference", [("memcpy_words", 3)], foreign=flip)
    blk = _run_cores("block", [("memcpy_words", 3)], foreign=flip)
    assert _without_diagnostics(blk) == _without_diagnostics(ref)
    assert blk["played"] > 0
    if offset > 0:
        assert blk["replays"] > 0


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("cycles", [1, 12, 40])
def test_foreign_stall_in_a_merged_memcpy_window(offset, cycles):
    """A foreign bus user takes the bus around the end of a load.  The
    core's next window starts while it may still hold the bus, and no
    access is played in place on a bus that is not quiet."""
    end, _, _ = _memcpy_accesses()[72]
    stall = (end + offset, "stall", cycles)
    ref = _run_cores("reference", [("memcpy_words", 3)], foreign=stall)
    blk = _run_cores("block", [("memcpy_words", 3)], foreign=stall)
    assert _without_diagnostics(blk) == _without_diagnostics(ref)
    assert blk["played"] > 0


@pytest.mark.parametrize("access", [7, 40, 41, 95])
@pytest.mark.parametrize("into", [0, 5, 11])
def test_run_limit_stops_mid_memcpy_like_the_reference(access, into):
    """``run(until)`` stops ``into`` cycles after the request of a DDR
    access: the horizon is capped at ``until + 1``, so the block
    interpreter plays no access that ends later in place and stops
    with the reference's clock, pc, registers, memory and bus state,
    then finishes like it too."""
    end, _, _ = _memcpy_accesses()[access]
    until = end - 12 + into
    ref = _run_cores("reference", [("memcpy_words", 3)], until=until)
    blk = _run_cores("block", [("memcpy_words", 3)], until=until)
    assert blk["now"] == until
    assert _without_diagnostics(blk) == _without_diagnostics(ref)


#: A loop of DDR loads, then a load of a misaligned DDR word: at a fixed
#: address, which no region plays, or through a register, which the
#: region leaves to the window loop.
MISALIGNED = {
    "fixed": """
    addi r4, r0, 3
loop:
    lwi  r3, r0, 0x40080000
    subi r4, r4, 1
    bnez r4, loop
    lwi  r3, r0, 0x40080002
    halt
""",
    "register": """
    addi r4, r0, 3
    addi r5, r0, 0x40080000
loop:
    lwi  r3, r5, 0
    addi r5, r5, 1
    subi r4, r4, 1
    bnez r4, loop
    halt
""",
}


@pytest.mark.parametrize("source", sorted(MISALIGNED))
def test_misaligned_ddr_access_fails_like_the_reference(source):
    """A misaligned DDR word is never played in place: it raises after
    its bus transaction, at the reference's instant."""
    results = []
    for mode in ("reference", "block"):
        soc = SoC(SoCConfig(n_cpus=1))
        executor = ISAExecutor(soc.cores[0], assemble(MISALIGNED[source]),
                               mode=mode)
        soc.sim.process(executor.run())
        with pytest.raises(MemoryError_, match="misaligned"):
            soc.sim.run()
        results.append((soc.sim.now, executor.cycles, executor.state.pc,
                        executor.data_accesses, bus_stats(soc.bus.stats)))
    assert results[0] == results[1]


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
        0, batch, 0, 2, 3,
        batch, ddr.access_latency(1), 0, 1, 1,
    ]
    assert bus.stats.transactions == 4


@pytest.mark.parametrize("mode", ["block", "reference"])
def test_bus_log_is_the_digest_of_the_list_record(mode):
    """``run_kernel``'s ``bus_log`` is the row count and the SHA-256 of
    the record :func:`_probe_bus` writes into a plain list: five
    integers per transaction, as signed 64-bit native words."""
    summary = run_kernel("memcpy_words", mode, iterations=3)
    soc = SoC(SoCConfig(n_cpus=1))
    log: list = []
    _probe_bus(soc.bus, log)
    program = _driver("memcpy_words", 3)
    for i in range(DATA_WORDS):
        program.data[DATA_BASE + 4 * i] = 0x0101 * (i + 1)
    executor = ISAExecutor(soc.cores[0], program, mode=mode)
    soc.sim.process(executor.run())
    soc.sim.run()
    assert len(log) == 5 * soc.bus.stats.transactions
    record = struct.pack(f"={len(log)}q", *log)
    assert summary["bus_log"] == (soc.bus.stats.transactions,
                                  hashlib.sha256(record).hexdigest())


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
        MEMORY_OP,
        st.just(Instruction("halt")),
    )
    return Program(instructions=draw(st.lists(instruction, min_size=n,
                                              max_size=n)))



def _memory_ops(addresses):
    """Word loads and stores at immediate addresses off r0."""
    return st.builds(lambda op, rd, addr: Instruction(op, rd, 0, imm=addr),
                     st.sampled_from(["lwi", "swi"]), PROGRAM_REGS,
                     st.sampled_from(addresses))


#: Data accesses of the generated programs: local BRAM and DDR words.
DDR_WORDS = [0x4008_0000, 0x4008_0004]
MEMORY_OP = _memory_ops([0x100, 0x104] + DDR_WORDS)
DDR_OP = _memory_ops(DDR_WORDS)


#: Where the memcpy-shaped body of a generated loop reads and writes its
#: words: DDR words, local words, and a misaligned DDR word.
SOURCES = [DDR_WORDS[0]] * 3 + [0x104, DDR_WORDS[0] + 2]
TARGETS = [0x4009_0000, DDR_WORDS[1], 0x100]
LOCAL_OP = _memory_ops([0x100, 0x104])


@st.composite
def _loops(draw):
    """A counted loop (counter r5, which the body never touches) around
    a random body, so one region runs many iterations.  The body is
    core-private, or also reads and writes local and DDR words: then it
    copies a word from ``r6`` to ``r7`` and steps both pointers, as
    ``memcpy_words`` does, and does a local access, so that one region
    plays many DDR accesses in place.  The pointers mostly start at DDR
    words, and else at local words or a misaligned DDR word.  The body's
    branches stay in the loop; the tail halts, or leaves through a
    ``jr`` to the loop head, past the program's end or to a random
    register's value."""
    memory = draw(st.booleans())
    body_len = draw(st.integers(1, 10))
    head = 3  # after the counter and the two pointers
    top = head + body_len + 4 * memory + 1  # pc of the closing bnez
    reg = PROGRAM_REGS
    inner = st.integers(head, top)
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
    if memory:
        instruction = st.one_of(instruction, MEMORY_OP)
    body = draw(st.lists(instruction, min_size=body_len, max_size=body_len))
    if memory:
        word = draw(reg)
        for extra in ([Instruction("lwi", word, 6), Instruction("swi", word, 7)],
                      [Instruction("addi", 6, 6, imm=4),
                       Instruction("addi", 7, 7, imm=4)],
                      [draw(LOCAL_OP)]):
            at = draw(st.integers(0, len(body)))
            body[at:at] = extra
    tail = draw(st.sampled_from(["halt", "head", "past", "register"]))
    exits = {
        "halt": [Instruction("halt")],
        "head": [Instruction("addi", 3, 0, imm=head), Instruction("jr", 3)],
        "past": [Instruction("addi", 3, 0, imm=top + 40),
                 Instruction("jr", 3)],
        "register": [Instruction("jr", draw(reg))],
    }[tail]
    return Program(instructions=[
        Instruction("addi", 5, 0, imm=draw(st.integers(1, 40))),
        Instruction("addi", 6, 0, imm=draw(st.sampled_from(SOURCES))),
        Instruction("addi", 7, 0, imm=draw(st.sampled_from(TARGETS))),
    ] + body + [
        Instruction("subi", 5, 5, imm=1),
        Instruction("bnez", 5, imm=head)] + exits)


def _run_program(mode, program, budget, warm, foreign=None,
                 geometry=(2, 2), until=None, replays=None):
    """Observable end state of ``program`` on an I-cache of ``geometry``
    (lines, words per line), by default 2 lines of 2 words, with an
    optional ``foreign`` event (:func:`_schedule_foreign`).  With
    ``until`` the run first stops there; what the bus, the memory and
    the trace show at that instant is kept under ``"stopped"``.  The
    executor's fault replays are appended to the list ``replays``."""
    lines, words = geometry
    soc = SoC(SoCConfig(n_cpus=1, icache_lines=lines,
                        icache_line_words=words))
    core = soc.cores[0]
    if warm:
        for index in range(len(program)):
            core.icache.fill_line(program.address_of(index))
    bus_log: list = []
    _probe_bus(soc.bus, bus_log)
    trace = TraceRecorder()
    _schedule_foreign(soc, foreign)
    executor = ISAExecutor(core, program, trace=trace, mode=mode)
    caught = []

    def driver():
        try:
            yield from executor.run(budget)
        except (ISAError, MemoryError_) as exc:
            caught.append(str(exc))

    soc.sim.process(driver())
    stopped = None
    if until is not None:
        soc.sim.run(until)
        stopped = (soc.sim.now, tuple(bus_log),
                   sorted(soc.ddr._words.items()),
                   [(e.time, e.info) for e in trace.events])
    soc.sim.run()
    if replays is not None:
        replays.append(executor.replays)
    state = executor.state
    return {
        "stopped": stopped, "error": caught, "cycles": executor.cycles,
        "now": soc.sim.now,
        "retired": state.instructions_retired, "pc": state.pc,
        "halted": state.halted, "regs": tuple(state.regs),
        "icache_hits": core.icache.hits, "icache_misses": core.icache.misses,
        "executor_misses": executor.icache_misses,
        "data_accesses": executor.data_accesses, "bus_log": tuple(bus_log),
        "bus_stats": bus_stats(soc.bus.stats),
        "ddr": sorted(soc.ddr._words.items()),
        "trace": [(e.time, e.info) for e in trace.events],
    }


@settings(max_examples=300, deadline=None)
@given(program=st.one_of(_programs(), _loops()),
       budget=st.integers(1, 600), warm=st.booleans(), data=st.data())
def test_random_programs_match_reference(program, budget, warm, data):
    """Loops run many iterations inside one compiled region, budgets end
    mid-iteration, conflict misses on the 2-line I-cache land in chained
    blocks and ``jr`` leaves a region for anywhere, and the end state
    still equals the reference bit for bit.

    A drawn run also has a foreign bus user, or a bit flip of a DDR
    word, one cycle before, at or one cycle after the end of one of the
    run's DDR accesses, so that access ends just after, at or just
    before the horizon.  It is played in place only when it ends
    strictly before it: at the tie the flip lands before the access
    reads or writes the word, and the accesses behind a stall take the
    arbitrated path."""
    ref = _run_program("reference", program, budget, warm)
    if data.draw(st.integers(0, 3), label="foreign"):
        # The end instant and word of each DDR access ("addr=0x... op=...");
        # a misaligned access's word is the aligned one it falls in.
        ends = [(time, int(info.split()[0][5:], 16) & ~3)
                for time, info in ref["trace"]]
        end, addr = (data.draw(st.sampled_from(ends), label="end") if ends
                     else (data.draw(st.integers(0, 300), label="instant"),
                           DDR_WORDS[0]))
        instant = max(0, end + data.draw(st.sampled_from([0, 1, -1]),
                                         label="offset"))
        foreign = (instant,) + data.draw(st.sampled_from(
            [("flip", addr), ("stall", 1), ("stall", 12), ("stall", 40)]),
            label="kind")
        ref = _run_program("reference", program, budget, warm, foreign)
        blk = _run_program("block", program, budget, warm, foreign)
    else:
        blk = _run_program("block", program, budget, warm)
    assert blk == ref


def test_no_access_plays_in_place_while_a_stall_holds_the_bus():
    """A local access ends a window, so the core resumes while a long
    foreign stall that started just before still holds the bus, and the
    stall's own end is the horizon.  The DDR load behind it would end
    before that horizon, but the bus is not quiet: it waits as in the
    reference."""
    program = assemble("""
    addi r4, r0, 4
loop:
    swi  r4, r0, 0x100
    lwi  r3, r0, 0x40080000
    add  r5, r5, r3
    subi r4, r4, 1
    bnez r4, loop
    halt
""")
    for instant in range(0, 160, 3):
        stall = (instant, "stall", 40)
        assert (_run_program("block", program, 1_000, True, stall)
                == _run_program("reference", program, 1_000, True, stall))


#: Six memcpy passes, their accesses played in place inside one region
#: call, then a loop of ALU work.
COPY_THEN_SPIN = """
    addi r4, r0, 6
    addi r8, r0, 0x40080000
    addi r9, r0, 0x40090000
copy:
    lwi  r3, r8, 0
    swi  r3, r9, 0
    addi r8, r8, 4
    addi r9, r9, 4
    subi r4, r4, 1
    bnez r4, copy
    addi r6, r0, 40
spin:
    xori r7, r7, 0x55
    add  r10, r10, r7
    subi r6, r6, 1
    bnez r6, spin
    halt
"""


@pytest.mark.parametrize("kind", ["flip", "upset"])
@pytest.mark.parametrize("after,delay", [(4, 1), (5, 1), (5, 3), (9, 2),
                                         (11, 1), (11, 30), (11, 150)])
def test_fault_after_accesses_played_inside_a_region(kind, after, delay):
    """A DDR bit flip or a register upset lands inside the coalesced sleep
    ``delay`` cycles after the end of DDR access ``after``: in the copy
    loop, where the next load reads the flipped word, one cycle after a
    load, where the store behind it finds no room and ends the window, or
    in the ALU loop after the last access.  Accesses up to there were played in place
    inside the region; the window rolls back to the checkpoint the region
    handed back, past the last of them, and replays the ALU work from
    there.  Every observable, the bus record and the trace equal the
    reference's."""
    program = assemble(COPY_THEN_SPIN)
    for i in range(6):
        program.data[DDR_WORDS[0] + 4 * i] = 0x0101 * (i + 1)
    ends = [time for time, _ in _run_program(
        "reference", program, 1_000, True, geometry=(16, 8))["trace"]]
    assert len(ends) == 12
    arg = DDR_WORDS[0] + 4 * min(5, after // 2 + 1) if kind == "flip" else 0
    foreign = (ends[after] + delay, kind, arg)
    ref = _run_program("reference", program, 1_000, True, foreign,
                       geometry=(16, 8))
    replays = []
    blk = _run_program("block", program, 1_000, True, foreign,
                       geometry=(16, 8), replays=replays)
    assert blk == ref
    assert replays == [1]


#: Loop-free code: two DDR accesses, then ALU work.
STRAIGHT = """
    addi r8, r0, 0x40080000
    lwi  r3, r8, 0
    swi  r3, r8, 8
""" + "    xori r4, r4, 0x55\n    add  r5, r5, r4\n" * 12 + "    halt\n"


@pytest.mark.parametrize("kind", ["flip", "upset"])
@pytest.mark.parametrize("budget,delay", [(8, 1), (8, 4), (1_000, 1),
                                          (1_000, 5), (1_000, 20)])
def test_fault_after_accesses_in_straight_line_code(kind, budget, delay):
    """The accesses of a loop-free region, or of a block cut short where
    the budget of 8 instructions ends, five after the store, also play in
    place and hand back their checkpoint: a fault ``delay`` cycles after
    the store, in the ALU work behind it, rolls back to past the store
    and replays from there."""
    program = assemble(STRAIGHT)
    program.data[DDR_WORDS[0]] = 0x1234
    ref = _run_program("reference", program, budget, True, geometry=(16, 8))
    end = ref["trace"][-1][0]
    foreign = (end + delay, kind, DDR_WORDS[0] if kind == "flip" else 0)
    ref = _run_program("reference", program, budget, True, foreign,
                       geometry=(16, 8))
    replays = []
    blk = _run_program("block", program, budget, True, foreign,
                       geometry=(16, 8), replays=replays)
    assert blk == ref
    assert replays == [1]


@pytest.mark.parametrize("taken", [0, 1])
def test_branch_sides_share_no_known_values(taken):
    """A loop-free region compiles a branch's taken side first, nested
    under its test; what that side knows does not reach the fall-through:
    its copy of ``r4 - r5`` into r3 holds on its own path only."""
    program = assemble(f"""
    addi r1, r0, {taken}
    addi r4, r0, 7
    addi r5, r0, 3
    bnez r1, other
    sub  r3, r4, r5
    swi  r3, r0, 0x40080000
    halt
other:
    sub  r6, r4, r5
    sub  r3, r4, r5
    swi  r3, r0, 0x40080004
    halt
""")
    ref = _run_program("reference", program, 100, True, geometry=(16, 8))
    assert _run_program("block", program, 100, True, geometry=(16, 8)) == ref
    assert ref["regs"][3] == 4


def test_local_window_inside_ddr_is_left_to_the_window_loop():
    """A core whose local memory lies inside the DDR window: a pointer
    walking out of it loads local words, which no region plays in place,
    then DDR words, which it does, and stores them to local words."""
    source = """
    addi r4, r0, 8
    addi r8, r0, 0x40080110
loop:
    lwi  r3, r8, 0
    swi  r3, r8, -0x20
    addi r8, r8, 4
    subi r4, r4, 1
    bnez r4, loop
    halt
"""
    results = []
    for mode in ("reference", "block"):
        sim = Simulator()
        bus = OPBBus(sim)
        core = MicroBlaze(sim, 0, bus, DDRMemory(),
                          local_mem=LocalBRAM(0, size=0x120, base=0x4008_0000))
        executor = ISAExecutor(core, assemble(source), mode=mode)
        sim.process(executor.run())
        sim.run()
        results.append((sim.now, executor.cycles, tuple(executor.state.regs),
                        executor.data_accesses, bus_stats(bus.stats),
                        sorted(core.local_mem._words.items()),
                        sorted(core.ddr._words.items())))
    assert results[0] == results[1]
    assert results[1][3] == 16
    assert len(results[1][5]) == 8  # the stores, all local


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


# ------------------------------------------------------------ self-loop arms
#: Loops whose arm transfers back to its own head, so the region runs
#: the arm as an inner loop: through a conditional back edge, and through
#: an unconditional one with the exit test in the middle.  A DDR store
#: follows each loop.
SELF_LOOPS = {
    "conditional": """
    addi r5, r0, 6
loop:
    addi r3, r3, 7
    xori r4, r3, 5
    add  r6, r6, r4
    subi r5, r5, 1
    bnez r5, loop
    swi  r6, r0, 0x40080000
    halt
""",
    "unconditional": """
    addi r5, r0, 6
loop:
    addi r3, r3, 7
    subi r5, r5, 1
    beqz r5, done
    xori r4, r3, 5
    add  r6, r6, r4
    br   loop
done:
    swi  r6, r0, 0x40080000
    halt
""",
}

#: I-cache geometries (lines, words per line): the loop fits one line;
#: it spans two lines; its lines conflict with each other.
SELF_LOOP_GEOMETRIES = [(16, 8), (4, 4), (2, 2)]

#: A self-loop inside an outer loop, on 2 lines of 4 words: the inner
#: loop's second line (pcs 8-11) shares its cache line with the outer
#: loop's head (pcs 0-3), so every pass of the outer loop misses on it
#: in the first iteration of the inner loop, after its first line hit.
NESTED_SELF_LOOP = """
    addi r6, r0, 3
outer:
    addi r5, r0, 4
    nop
    nop
loop:
    addi r3, r3, 1
    xori r4, r3, 5
    add  r7, r7, r4
    nop
    subi r5, r5, 1
    bnez r5, loop
    subi r6, r6, 1
    bnez r6, outer
    halt
"""


@pytest.mark.parametrize("geometry", SELF_LOOP_GEOMETRIES + [(2, 4)])
@pytest.mark.parametrize("source", sorted(SELF_LOOPS) + ["nested"])
def test_self_loop_programs_run_an_inner_loop(source, geometry,
                                              region_sources):
    """The self-loop programs do reach the inner-loop form: the region
    that claims the loop's head runs that arm as a ``while`` loop."""
    program = assemble(SELF_LOOPS.get(source, NESTED_SELF_LOOP))
    lines, words = geometry
    core = SoC(SoCConfig(n_cpus=1, icache_lines=lines,
                         icache_line_words=words)).cores[0]
    loop = (program.symbols["loop"] - program.base) // 4
    regions = _compile_regions(program, core.icache, _memory_map(core))
    body = region_sources[regions.entry(loop).__name__]
    arm = next(i for i, line in enumerate(body)
               if line.endswith(f"if pc == {loop}:"))
    assert body[arm + 2].startswith("        while left >= ")


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("geometry", SELF_LOOP_GEOMETRIES)
@pytest.mark.parametrize("source", sorted(SELF_LOOPS))
def test_self_loop_budget_ends_at_every_offset(source, geometry, warm):
    """The instruction budget ends at every instruction of every pass
    of the loop: the error, pc, registers, cycles and the rest of the
    end state equal the reference's."""
    program = assemble(SELF_LOOPS[source])
    full = _run_program("reference", program, 1_000, warm, geometry=geometry)
    assert full["halted"] and not full["error"]
    for budget in range(1, full["retired"] + 1):
        ref = _run_program("reference", program, budget, warm,
                           geometry=geometry)
        blk = _run_program("block", program, budget, warm, geometry=geometry)
        assert blk == ref, budget
        assert ref["error"] or budget == full["retired"]


def test_self_loop_misses_on_its_second_line():
    """The outer loop evicts the inner loop's second line, so each later
    outer pass misses on it inside the inner loop's first iteration: the
    run, and every budget that ends in it, equal the reference's."""
    program = assemble(NESTED_SELF_LOOP)
    full = _run_program("reference", program, 1_000, False, geometry=(2, 4))
    # The outer head and the inner loop's two lines, then per later outer
    # pass its head and the inner loop's second line again, then halt's
    # line, which shares its cache line with the inner loop's first.
    assert full["executor_misses"] == 3 + 2 * 2 + 1
    for budget in list(range(1, full["retired"] + 1)) + [1_000]:
        ref = _run_program("reference", program, budget, False,
                           geometry=(2, 4))
        blk = _run_program("block", program, budget, False, geometry=(2, 4))
        assert blk == ref, budget


@pytest.mark.parametrize("source", sorted(SELF_LOOPS))
def test_run_until_inside_a_self_loop(source):
    """``run(until)`` stops at every instant of the run, inside the loop
    too: the clock, bus record, memory and trace then, and the end state
    after the run goes on, equal the reference's."""
    program = assemble(SELF_LOOPS[source])
    full = _run_program("reference", program, 1_000, False, geometry=(16, 8))
    for until in range(full["now"] + 1):
        ref = _run_program("reference", program, 1_000, False,
                           geometry=(16, 8), until=until)
        blk = _run_program("block", program, 1_000, False, geometry=(16, 8),
                           until=until)
        assert blk["stopped"][0] == until
        assert blk == ref, until
