"""Context switching through shared memory.

The paper: "Tasks contexts are constituted by the register file of the
MicroBlaze processor and the stack.  During context switching, the
contexts are saved in shared memory, stored in a vector that contains
a location for each task runnable in the system.  The context switch
primitive, when executed, loads the register file into the processor
and the stack into the local memory."

So a switch-out writes (32 + stack_words) words to DDR over the OPB
and a switch-in reads them back, all arbitrated -- this is the traffic
the paper identifies as a main source of the real system's slowdown
("task switching, with movements of contexts and stacks for many
applications from and to shared memory, generates consistent traffic").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.microblaze import MicroBlaze

#: MicroBlaze register file size in words.
REGISTER_FILE_WORDS = 32

#: Burst length used when streaming stacks to/from DDR.
BURST_WORDS = 8


@dataclass
class TaskContext:
    """Saved state of one task in the shared-memory context vector."""

    task_name: str
    stack_words: int
    regfile_words: int = REGISTER_FILE_WORDS
    saved: bool = False
    save_count: int = 0
    restore_count: int = 0

    @property
    def total_words(self) -> int:
        return self.regfile_words + self.stack_words


class ContextSwitchEngine:
    """Performs the save/restore traffic for one core.

    All transfers go through the arbitrated bus to the DDR, in bursts
    of :data:`BURST_WORDS`, plus a fixed instruction overhead for the
    switch primitive itself (interrupt-state exit, stack relocation
    bookkeeping).
    """

    #: Default cycles of pure kernel code per half-switch.
    PRIMITIVE_OVERHEAD = 150

    def __init__(
        self,
        core: MicroBlaze,
        primitive_overhead: int = PRIMITIVE_OVERHEAD,
        regfile_words: int = REGISTER_FILE_WORDS,
    ):
        if primitive_overhead < 0:
            raise ValueError("primitive_overhead must be non-negative")
        if regfile_words < 0:
            raise ValueError("regfile_words must be non-negative")
        self.core = core
        self.primitive_overhead = primitive_overhead
        self.regfile_words = regfile_words
        self.contexts: Dict[str, TaskContext] = {}
        self.saves = 0
        self.restores = 0
        self.cycles_spent = 0

    def context_of(self, task_name: str, stack_words: int = 256) -> TaskContext:
        """The context-vector slot for a task (created on first use)."""
        if task_name not in self.contexts:
            self.contexts[task_name] = TaskContext(
                task_name, stack_words, regfile_words=self.regfile_words
            )
        return self.contexts[task_name]

    def save(self, context: TaskContext):
        """Generator: save register file + stack to shared memory."""
        core = self.core
        start = core.sim.now
        yield from core.sim.sleep(self.primitive_overhead)
        yield from core.bus.stream(core.cpu_id, core.ddr, context.total_words,
                                   BURST_WORDS)
        context.saved = True
        context.save_count += 1
        self.saves += 1
        self.cycles_spent += core.sim.now - start

    def restore(self, context: TaskContext):
        """Generator: load register file, relocate stack to local BRAM."""
        core = self.core
        start = core.sim.now
        yield from core.sim.sleep(self.primitive_overhead)
        yield from core.bus.stream(core.cpu_id, core.ddr, context.total_words,
                                   BURST_WORDS)
        context.restore_count += 1
        self.restores += 1
        self.cycles_spent += core.sim.now - start

    def switch(self, old: Optional[TaskContext], new: Optional[TaskContext]):
        """Generator: full switch (save old if any, restore new if any)."""
        if old is not None:
            yield from self.save(old)
        if new is not None:
            yield from self.restore(new)
