"""ISA interpreter kernel drivers & equivalence record.

Runs the :mod:`repro.hw.asmlib` kernels under either ISA interpreter
(``"block"`` or ``"reference"``, see :mod:`repro.hw.isa`) and returns
a full *observable* record: cycles, architectural state, I-cache
counters, trace events, a digest of the exact bus-transaction instants
and the bus statistics.
``tests/hw/test_isa_blocks.py`` uses :func:`run_kernel` and
:func:`observable` to prove the two interpreters bit-for-bit
equivalent, including under fault plans and with tracing /
``count_pcs`` enabled; the ``isa-kernels`` workload in ``bench/``
times block mode on the same drivers.
"""

from __future__ import annotations

import functools
import hashlib
from array import array
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.hw.isa import Program
    from repro.hw.soc import SoC

#: Shared input array (16 words) used by the memory-bound kernels.
DATA_BASE = 0x4008_0000
#: memcpy destination.
DST_BASE = 0x4009_0000
#: Words in the shared input array.
DATA_WORDS = 16

#: Driver programs: each calls one asmlib routine ``{iters}`` times
#: following the library calling convention (args r5..r7, result r3,
#: link r15, r3..r10 caller-saved -- so the drivers keep loop state in
#: r20+).  Inputs vary per iteration where the kernel cost allows, so
#: the work is not trivially cacheable by the branch predictor of the
#: host CPU running the interpreter.
KERNEL_DRIVERS: Dict[str, str] = {
    "memcpy_words": """
    addi r20, r0, {iters}
main_loop:
    addi r5, r0, 0x40080000
    addi r6, r0, 0x40090000
    addi r7, r0, 16
    brl  r15, memcpy_words
    subi r20, r20, 1
    bnez r20, main_loop
    halt
""",
    "array_sum": """
    addi r20, r0, {iters}
    addi r21, r0, 0
main_loop:
    addi r5, r0, 0x40080000
    addi r6, r0, 16
    brl  r15, array_sum
    add  r21, r21, r3
    subi r20, r20, 1
    bnez r20, main_loop
    halt
""",
    "popcount32": """
    addi r20, r0, {iters}
    addi r21, r0, 0
    addi r22, r0, 0x1234ABCD
main_loop:
    add  r5, r22, r20
    brl  r15, popcount32
    add  r21, r21, r3
    addi r22, r22, 0x9E3779B9
    subi r20, r20, 1
    bnez r20, main_loop
    halt
""",
    "crc32_word": """
    addi r20, r0, {iters}
    addi r6, r0, 0xFFFFFFFF
main_loop:
    add  r5, r20, r6
    brl  r15, crc32_word
    add  r6, r3, r0
    subi r20, r20, 1
    bnez r20, main_loop
    add  r21, r6, r0
    halt
""",
    "isqrt32": """
    addi r20, r0, {iters}
    addi r21, r0, 0
main_loop:
    muli r5, r20, 17
    addi r5, r5, 3
    brl  r15, isqrt32
    add  r21, r21, r3
    subi r20, r20, 1
    bnez r20, main_loop
    halt
""",
}

#: Nominal call counts per kernel: enough work for a stable wall-time
#: signal (tens of milliseconds in reference mode) while a run over
#: every kernel in both modes stays a few seconds.
DEFAULT_ITERS: Dict[str, int] = {
    "memcpy_words": 100,
    "array_sum": 100,
    "popcount32": 3000,
    "crc32_word": 300,
    "isqrt32": 120,
}

#: Everything two interpreter runs must agree on, bit for bit.
OBSERVABLE_KEYS: Tuple[str, ...] = (
    "cycles",
    "retired",
    "regs",
    "pc",
    "halted",
    "icache_hits",
    "icache_misses",
    "executor_misses",
    "data_accesses",
    "trace",
    "bus_log",
    "bus_stats",
    "now",
)


def observable(summary: dict) -> dict:
    """The mode-independent projection of a :func:`run_kernel` summary."""
    return {key: summary[key] for key in OBSERVABLE_KEYS}


def bus_stats(stats) -> tuple:
    """A :class:`~repro.hw.bus.BusStats` as ints and sorted pairs:
    transactions, busy cycles, waits and transactions per master, and
    cycles per target."""
    return (
        stats.transactions,
        stats.busy_cycles,
        tuple(sorted(stats.wait_cycles.items())),
        tuple(sorted(stats.transactions_by_master.items())),
        tuple(sorted(stats.per_target.items())),
    )


def _probe_bus(bus, log) -> None:
    """Record every bus transaction's request instant and completion.

    Wraps the instance's ``transfer``, and its ``credit`` for the
    transactions a master plays in place, so the sentinel can compare
    the *exact instants* shared-bus traffic hits arbitration in each
    mode, whichever path it takes.  ``log`` (a list, or an integer
    ``array``) gains five integers per transfer, or per credited
    transaction: the request instant, appended at the request, then the
    cycles from request to completion, master, words and count, appended
    at the completion.
    """
    inner = bus.transfer
    inner_credit = bus.credit
    sim = bus.sim
    append = log.append
    extend = log.extend

    def probed(master, target, words=1, count=1):
        start = sim.now
        append(start)
        result = yield from inner(master, target, words, count)
        extend((sim.now - start, master, words, count))
        return result

    def probed_credit(master, target, starts, words=1):
        latency = inner_credit(master, target, starts, words)
        # Each is granted at its request: one row per start.
        record = array("q", (0, latency, master, words, 1)) * len(starts)
        record[::5] = array("q", starts)
        extend(record)
        return latency

    bus.transfer = probed
    bus.credit = probed_credit


def _arm_plan(soc: SoC, plan) -> None:
    """Schedule a FaultPlan's events directly against the hw surfaces.

    The full injector drives kernel-level faults too; kernel-less ISA
    runs only accept the two hardware kinds the block interpreter must
    survive (``bitflip_memory``, ``bitflip_register``).
    """
    for event in plan.events:
        if event.kind == "bitflip_memory":
            target = soc.ddr
            if event.cpu is not None:
                local = soc.cores[event.cpu].local_mem
                if local.contains(event.addr):
                    target = local
            soc.sim.schedule_at(
                event.time,
                lambda t=target, e=event: t.flip_bit(e.addr, e.arg),
            )
        elif event.kind == "bitflip_register":
            soc.sim.schedule_at(
                event.time,
                lambda c=soc.cores[event.cpu]: c.register_upset(),
            )
        else:
            raise ValueError(
                f"ISA bench plans support bitflip kinds only, got {event.kind!r}"
            )


@functools.lru_cache(maxsize=64)
def _driver(name: str, iters: int) -> Program:
    """The linked driver of ``name`` at ``iters`` calls, linked once so
    that the decoded form and the compiled regions it carries are
    reused by every later run."""
    from repro.hw.asmlib import link

    return link(KERNEL_DRIVERS[name].format(iters=iters), [name])


def run_kernel(
    name: str,
    mode: str,
    iterations: Optional[int] = None,
    trace: bool = False,
    count_pcs: bool = False,
    warm_icache: bool = False,
    plan=None,
    max_instructions: int = 5_000_000,
) -> dict:
    """Run one asmlib kernel driver to completion under ``mode``.

    Returns a summary dict: the :data:`OBSERVABLE_KEYS` projection both
    interpreters must agree on, plus per-run diagnostics (engine event
    count, block windows/replays, pc counts).  ``bus_log`` is the
    :func:`_probe_bus` record's row count and SHA-256 (its integers as
    signed 64-bit native-order words).
    """
    from repro.hw.isa import ISAExecutor
    from repro.hw.soc import SoC, SoCConfig

    if name not in KERNEL_DRIVERS:
        raise ValueError(f"unknown kernel {name!r} (have {sorted(KERNEL_DRIVERS)})")
    iters = DEFAULT_ITERS[name] if iterations is None else iterations
    soc = SoC(SoCConfig(n_cpus=1))
    program = _driver(name, iters)
    for i in range(DATA_WORDS):
        program.data[DATA_BASE + 4 * i] = (0x0101 * (i + 1)) & 0xFFFFFFFF
    core = soc.cores[0]
    trace_rec = None
    if trace:
        from repro.trace.recorder import TraceRecorder

        trace_rec = TraceRecorder()
    bus_log = array("q")
    _probe_bus(soc.bus, bus_log)
    if warm_icache:
        for index in range(0, len(program), core.icache.line_words):
            core.icache.fill_line(program.address_of(index))
    if plan is not None:
        _arm_plan(soc, plan)
    executor = ISAExecutor(core, program, trace=trace_rec, count_pcs=count_pcs,
                           mode=mode)
    soc.sim.process(executor.run(max_instructions), name=f"isa-{name}")
    soc.sim.run()
    state = executor.state
    return {
        "kernel": name,
        "mode": executor.mode,
        "iterations": iters,
        "cycles": executor.cycles,
        "retired": state.instructions_retired,
        "regs": tuple(state.regs),
        "pc": state.pc,
        "halted": state.halted,
        "icache_hits": core.icache.hits,
        "icache_misses": core.icache.misses,
        "executor_misses": executor.icache_misses,
        "data_accesses": executor.data_accesses,
        "trace": tuple(
            (e.time, e.kind, e.cpu, e.info) for e in trace_rec.events
        ) if trace_rec is not None else None,
        "bus_log": (len(bus_log) // 5, hashlib.sha256(bus_log).hexdigest()),
        "bus_stats": bus_stats(soc.bus.stats),
        "now": soc.sim.now,
        "events": soc.sim._eid,
        "windows": executor.windows,
        "window_instructions": executor.window_instructions,
        "replays": executor.replays,
        "pc_counts": dict(executor.pc_counts) if executor.pc_counts is not None else None,
    }
