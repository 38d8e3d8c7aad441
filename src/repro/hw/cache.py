"""Direct-mapped instruction cache.

The paper: "Instruction cache is implemented for each processor,
bringing down access latency from 12 to 1 clock cycle in case of hit."
The cache refills whole lines from DDR over the OPB, so misses both
delay the core and add bus traffic (the contention the paper blames for
the real-vs-simulated gap).  The ISA substrate drives it through the
address-accurate :meth:`lookup` / :meth:`fill_line`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class DirectMappedICache:
    """A direct-mapped cache with ``n_lines`` lines of ``line_words`` words."""

    def __init__(self, cpu_id: int, n_lines: int = 256, line_words: int = 8):
        if n_lines <= 0 or line_words <= 0:
            raise ValueError("n_lines and line_words must be positive")
        if n_lines & (n_lines - 1):
            raise ValueError("n_lines must be a power of two")
        self.cpu_id = cpu_id
        self.n_lines = n_lines
        self.line_words = line_words
        self.line_bytes = line_words * 4
        self._tags: List[Optional[int]] = [None] * n_lines
        self.hits = 0
        self.misses = 0

    def _split(self, addr: int) -> Tuple[int, int]:
        line_addr = addr // self.line_bytes
        index = line_addr % self.n_lines
        tag = line_addr // self.n_lines
        return index, tag

    def lookup(self, addr: int) -> bool:
        """True on hit; updates hit/miss counters."""
        index, tag = self._split(addr)
        if self._tags[index] == tag:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill_line(self, addr: int) -> None:
        """Install the line containing ``addr``."""
        index, tag = self._split(addr)
        self._tags[index] = tag

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
