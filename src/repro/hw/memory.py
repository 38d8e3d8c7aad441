"""Memory models: local BRAM, shared boot BRAM, external DDR.

Latencies follow the paper: local memories and cache hits cost 1
cycle; uncached accesses over the OPB to the DDR cost 12 cycles (the
paper: "bringing down access latency from 12 to 1 clock cycle in case
of hit").  Word-granular storage is provided so the ISA substrate can
actually load/store data, while the scheduling-level models only use
the latency interface.
"""

from __future__ import annotations

from typing import Dict


class MemoryError_(Exception):
    """Access outside a region or misaligned (name avoids builtin)."""


class WordStorage:
    """Sparse word-addressable storage (4-byte words, byte addresses)."""

    def __init__(self, base: int, size: int, name: str):
        if size <= 0 or size % 4:
            raise ValueError(f"{name}: size must be a positive multiple of 4")
        if base % 4:
            raise ValueError(f"{name}: base must be word aligned")
        self.base = base
        self.size = size
        self.name = name
        self._words: Dict[int, int] = {}
        self.bitflips = 0
        # Fault observers: called (addr, bit) *before* a flip_bit
        # mutation lands, so temporally decoupled executors can
        # invalidate work speculated past the fault instant.
        self._fault_listeners: list = []

    def add_fault_listener(self, listener) -> None:
        """Register ``listener(addr, bit)``, called before each flip."""
        self._fault_listeners.append(listener)

    def remove_fault_listener(self, listener) -> None:
        """Detach a listener registered with :meth:`add_fault_listener`."""
        if listener in self._fault_listeners:
            self._fault_listeners.remove(listener)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def _index(self, addr: int) -> int:
        if addr % 4:
            raise MemoryError_(f"{self.name}: misaligned access at {addr:#x}")
        if not self.contains(addr):
            raise MemoryError_(
                f"{self.name}: address {addr:#x} outside "
                f"[{self.base:#x}, {self.base + self.size:#x})"
            )
        return (addr - self.base) // 4

    def read_word(self, addr: int) -> int:
        """32-bit read; uninitialised words read as zero."""
        return self._words.get(self._index(addr), 0)

    def write_word(self, addr: int, value: int) -> None:
        """32-bit write (value truncated to 32 bits)."""
        self._words[self._index(addr)] = value & 0xFFFFFFFF

    def load(self, addr: int, words) -> None:
        """Bulk initialisation from an iterable of words."""
        for i, word in enumerate(words):
            self.write_word(addr + 4 * i, word)

    def flip_bit(self, addr: int, bit: int) -> int:
        """Transient-fault surface: XOR one bit of the stored word.

        Models an SEU in the memory array.  Returns the corrupted
        value.  Address checking is the same as a normal access; the
        flip itself is free (it is an environmental event, not a bus
        transaction).
        """
        if not 0 <= bit < 32:
            raise ValueError("bit must be in [0, 32)")
        for listener in list(self._fault_listeners):
            listener(addr, bit)
        value = self.read_word(addr) ^ (1 << bit)
        self._words[self._index(addr)] = value
        self.bitflips += 1
        return value


class LocalBRAM(WordStorage):
    """Per-processor private memory (stack/heap of the running thread).

    Not connected to the OPB: accesses cost ``LATENCY`` cycles and never
    contend.  The kernel relocates a task's stack here on context switch.
    """

    LATENCY = 1

    def __init__(self, cpu_id: int, size: int = 64 * 1024, base: int = 0x0000_0000):
        super().__init__(base, size, name=f"lmb{cpu_id}")
        self.cpu_id = cpu_id

    def access_latency(self, words: int = 1) -> int:
        return self.LATENCY * words


class SharedBRAM(WordStorage):
    """On-bus BRAM used for boot code; modest latency, contended."""

    FIRST_WORD = 2
    PER_WORD = 1

    def __init__(self, size: int = 16 * 1024, base: int = 0x8000_0000):
        super().__init__(base, size, name="boot-bram")

    def access_latency(self, words: int = 1) -> int:
        if words < 1:
            raise ValueError("words must be >= 1")
        return self.FIRST_WORD + self.PER_WORD * (words - 1)


class DDRMemory(WordStorage):
    """External DDR holding shared instructions and data.

    First access in a transaction pays the full 12-cycle penalty; burst
    continuation beats stream at ``PER_WORD`` cycles, matching the
    cache-line refill behaviour of the OPB DDR controller.
    """

    FIRST_WORD = 12
    PER_WORD = 2

    def __init__(self, size: int = 16 * 1024 * 1024, base: int = 0x4000_0000):
        super().__init__(base, size, name="ddr")

    def access_latency(self, words: int = 1) -> int:
        if words < 1:
            raise ValueError("words must be >= 1")
        return self.FIRST_WORD + self.PER_WORD * (words - 1)
