"""ISA interpreter benchmark & equivalence harness.

Runs the :mod:`repro.hw.asmlib` kernels under both ISA interpreters
(``"block"`` vs ``"reference"``, see :mod:`repro.hw.isa`) and reports
paired wall-time speedups plus a full *observable equality* record:
cycles, architectural state, I-cache counters, trace events and the
exact bus-transaction instants.  ``repro-perf bench --isa-only``
regenerates the ``isa`` section of ``BENCH_perf.json`` from
:func:`bench_isa`; ``tests/hw/test_isa_blocks.py`` reuses
:func:`run_kernel`/:func:`observable` to prove the two interpreters
bit-for-bit equivalent, including under fault plans and with tracing /
``count_pcs`` enabled.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.hw.asmlib import ROUTINES, link
from repro.hw.isa import ISAExecutor
from repro.hw.soc import SoC, SoCConfig

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

#: Call counts for the committed benchmark: enough work per kernel for
#: a stable wall-time signal (tens of milliseconds in reference mode)
#: while the full paired sweep stays a few seconds.
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
    "now",
)


def observable(summary: dict) -> dict:
    """The mode-independent projection of a :func:`run_kernel` summary."""
    return {key: summary[key] for key in OBSERVABLE_KEYS}


def _probe_bus(bus, log: list) -> None:
    """Log every bus transaction's request/completion instant.

    Wraps the instance's ``transfer`` so the sentinel can compare the
    *exact instants* shared-bus traffic hits arbitration in each mode.
    A batched transfer logs its ``count`` after ``words``; single
    transactions log ``(kind, instant, master, words)``.
    """
    inner = bus.transfer

    def probed(master, target, words=1, count=1):
        tag = (master, words) if count == 1 else (master, words, count)
        log.append(("req", bus.sim.now) + tag)
        result = yield from inner(master, target, words, count)
        log.append(("done", bus.sim.now) + tag)
        return result

    bus.transfer = probed


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
    interpreters must agree on, plus per-run diagnostics (host elapsed
    seconds, engine event count, block windows/replays, pc counts).
    """
    if name not in KERNEL_DRIVERS:
        raise ValueError(f"unknown kernel {name!r} (have {sorted(KERNEL_DRIVERS)})")
    iters = DEFAULT_ITERS[name] if iterations is None else iterations
    soc = SoC(SoCConfig(n_cpus=1, isa_mode=mode))
    program = link(KERNEL_DRIVERS[name].format(iters=iters), [name])
    for i in range(DATA_WORDS):
        program.data[DATA_BASE + 4 * i] = (0x0101 * (i + 1)) & 0xFFFFFFFF
    core = soc.cores[0]
    trace_rec = None
    if trace:
        from repro.trace.recorder import TraceRecorder

        trace_rec = TraceRecorder()
    bus_log: list = []
    _probe_bus(soc.bus, bus_log)
    if warm_icache:
        for index in range(0, len(program), core.icache.line_words):
            core.icache.fill_line(program.address_of(index))
    if plan is not None:
        _arm_plan(soc, plan)
    executor = ISAExecutor(core, program, trace=trace_rec, count_pcs=count_pcs)
    soc.sim.process(executor.run(max_instructions), name=f"isa-{name}")
    start = time.perf_counter()
    soc.sim.run()
    elapsed = time.perf_counter() - start
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
        "bus_log": tuple(bus_log),
        "now": soc.sim.now,
        "events": soc.sim._eid,
        "elapsed_s": elapsed,
        "windows": executor.windows,
        "window_instructions": executor.window_instructions,
        "replays": executor.replays,
        "pc_counts": dict(executor.pc_counts) if executor.pc_counts is not None else None,
    }


def bench_isa(repeats: int = 3, quick: bool = False) -> dict:
    """Paired block-vs-reference timing over every asmlib kernel.

    Each repeat times the two interpreters back to back on identical
    work, so host noise hits both sides of the ratio; the reported
    per-kernel speedup pairs the best (minimum) time of each mode.
    Every pair is also checked for observable equality -- a bench run
    that is fast but wrong must never land in ``BENCH_perf.json``.
    """
    rows: List[dict] = []
    total_ref = 0.0
    total_blk = 0.0
    ref_events = 0
    blk_events = 0
    retired_total = 0
    all_identical = True
    for name in ROUTINES:
        iters = DEFAULT_ITERS[name]
        if quick:
            iters = max(5, iters // 10)
        best_ref = None
        best_blk = None
        identical = True
        ref = blk = None
        for _ in range(max(1, repeats)):
            ref = run_kernel(name, "reference", iterations=iters)
            blk = run_kernel(name, "block", iterations=iters)
            if observable(ref) != observable(blk):
                identical = False
            if best_ref is None or ref["elapsed_s"] < best_ref:
                best_ref = ref["elapsed_s"]
            if best_blk is None or blk["elapsed_s"] < best_blk:
                best_blk = blk["elapsed_s"]
        all_identical = all_identical and identical
        total_ref += best_ref
        total_blk += best_blk
        ref_events += ref["events"]
        blk_events += blk["events"]
        retired_total += ref["retired"]
        rows.append(
            {
                "kernel": name,
                "iterations": iters,
                "retired": ref["retired"],
                "reference_s": round(best_ref, 6),
                "block_s": round(best_blk, 6),
                "speedup": round(best_ref / best_blk, 3),
                "identical": identical,
                "events_per_instr_reference": round(
                    ref["events"] / max(1, ref["retired"]), 4
                ),
                "events_per_instr_block": round(
                    blk["events"] / max(1, blk["retired"]), 4
                ),
                "windows": blk["windows"],
            }
        )
    return {
        "kernels": rows,
        "speedup": round(total_ref / total_blk, 3),
        "min_speedup": min(row["speedup"] for row in rows),
        "identical": all_identical,
        "events_per_instr_reference": round(ref_events / max(1, retired_total), 4),
        "events_per_instr_block": round(blk_events / max(1, retired_total), 4),
        "reference_s": round(total_ref, 6),
        "block_s": round(total_blk, 6),
    }
