"""Test oracle: the OPB arbiter as a plain, unbatched model.

:class:`ReferenceBus` keeps one holder and a list of waiters granted by
minimum ``(priority, arrival)``, and serves ``transfer(count=n)`` as
``n`` separate single-transaction generators -- the arbitration and
call shape every caller used before :class:`~repro.hw.bus.OPBBus`
inlined its arbiter and batched transfers.  Tests require ``OPBBus`` to
reproduce it instant for instant.  It also records every tenure, so
tests can check the arbiter's invariants on the same run.
"""

from repro.hw.bus import OPBBus
from repro.sim import Event


class ReferenceBus(OPBBus):
    def __init__(self, sim, name="opb"):
        super().__init__(sim, name)
        self.holder = None  # (priority, arrival, grant, requested, granted)
        self.waiters = []  # (priority, arrival, grant, requested)
        self.arrivals = 0
        self.tenures = []  # (priority, requested, granted, released)

    @property
    def busy(self):
        return self.holder is not None

    @property
    def queue_length(self):
        return len(self.waiters)

    def _request(self, priority):
        grant = Event(self.sim)
        self.arrivals += 1
        entry = (priority, self.arrivals, grant, self.sim.now)
        if self.holder is None:
            self._grant(entry)
        else:
            self.waiters.append(entry)
        return grant

    def _grant(self, entry):
        assert self.holder is None, "two holders at once"
        self.holder = entry + (self.sim.now,)
        entry[2].succeed()

    def _release(self, grant):
        if self.holder is not None and self.holder[2] is grant:
            priority, _arrival, _grant, requested, granted = self.holder
            self.tenures.append((priority, requested, granted, self.sim.now))
            self.holder = None
            if self.waiters:
                best = min(self.waiters, key=lambda entry: entry[:2])
                self.waiters.remove(best)
                self._grant(best)
            return
        for entry in self.waiters:
            if entry[2] is grant:
                self.waiters.remove(entry)
                return
        raise RuntimeError("release of a grant this bus never issued")

    def transfer(self, master, target, words=1, count=1):
        spent = 0
        for _ in range(count):
            spent += yield from self._transfer_one(master, target, words)
        return spent

    def _transfer_one(self, master, target, words):
        start = self.sim.now
        grant = self._request(master)
        try:
            yield grant
            waited = self.sim.now - start
            latency = target.access_latency(words)
            yield self.sim.timeout(latency)
        finally:
            self._release(grant)
        stats = self.stats
        stats.busy_cycles += latency
        stats.transactions += 1
        stats.wait_cycles[master] = stats.wait_cycles.get(master, 0) + waited
        stats.transactions_by_master[master] = stats.transactions_by_master.get(master, 0) + 1
        stats.per_target[target.name] = (
            stats.per_target.get(target.name, 0) + latency
        )
        return waited + latency
