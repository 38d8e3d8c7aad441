"""Test oracle: the MicroBlaze core executing chunk by chunk.

:class:`ReferenceCore` keeps the per-chunk ``execute`` generator every
caller used before :class:`~repro.hw.microblaze.MicroBlaze` handed its
chunks to the bus loop: each chunk spends its lead-in as a plain
timeout and issues its transactions through ``bus.transfer``, and the
calling process resumes twice per chunk.  Chunk sizes come from the
core's own :meth:`~repro.hw.microblaze.MicroBlaze._chunk_size`.  On a
:class:`~tests.hw.reference_bus.ReferenceBus` every transaction is a
generator of its own, so nothing runs ahead.  Tests require the
segment model to reproduce it instant for instant.
"""

from repro.hw.microblaze import DEFAULT_PROFILE, MicroBlaze, SegmentResult


class ReferenceCore(MicroBlaze):
    def execute(self, nominal_cycles, profile=DEFAULT_PROFILE, result=None):
        if nominal_cycles < 0:
            raise ValueError("nominal_cycles must be non-negative")
        if result is None:
            result = SegmentResult()
        txn_latency = self.ddr.access_latency(profile.access_words)
        remaining = nominal_cycles
        while remaining > 0:
            chunk = self._chunk_size(remaining)
            exact = chunk / profile.access_period + self._access_residue
            n_txn = int(exact)
            self._access_residue = exact - n_txn
            local = max(0, chunk - n_txn * txn_latency)
            start = self.sim.now
            try:
                if local:
                    yield self.sim.timeout(local)
                if n_txn:
                    yield from self.bus.transfer(
                        self.cpu_id, self.ddr, profile.access_words, n_txn
                    )
            except BaseException:
                elapsed = self.sim.now - start
                done = min(chunk, elapsed)
                result.nominal_done += done
                result.real_cycles += elapsed
                result.wait_cycles += max(0, elapsed - done)
                self.busy_cycles += elapsed
                self.nominal_cycles += done
                self.stall_cycles += max(0, elapsed - done)
                raise
            elapsed = self.sim.now - start
            remaining -= chunk
            result.nominal_done += chunk
            result.real_cycles += elapsed
            result.wait_cycles += max(0, elapsed - chunk)
            self.busy_cycles += elapsed
            self.nominal_cycles += chunk
            self.stall_cycles += max(0, elapsed - chunk)
        result.completed = True
        return result
