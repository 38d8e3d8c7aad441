"""Test oracle: the theoretical rung with a full MPDP decision per step.

:class:`ReferenceTheoreticalSimulator` runs the loop every caller of
:class:`~repro.simulators.theoretical.TheoreticalSimulator` used before
the rung went incremental: each scheduling tick and each instant with
a completion or an arrival recomputes the whole assignment with
:meth:`~repro.core.mpdp.MPDPScheduler.allocate`, and every trace record
is formatted whether or not the recorder keeps it.  Tests require the
incremental simulator to reproduce it job for job, counter for counter
and record for record.  It keeps the next tick in the simulator's
``_next_tick``, as the incremental loop does, so split runs stay on the
tick grid.
"""

from repro.simulators.theoretical import TheoreticalSimulator


class ReferenceTheoreticalSimulator(TheoreticalSimulator):
    def _process_tick(self):
        released = self.policy.release_due(self.now)
        for job in released:
            self._inflate(job)
            self.trace.record(self.now, "release", job=job.name)
        promoted = self.policy.promote_due(self.now)
        for job in promoted:
            self.trace.record(self.now, "promote", job=job.name)
        self.scheduling_cycles += 1
        self.trace.record(self.now, "tick")
        return True

    def _process_completions(self):
        dirty = False
        for cpu, job in enumerate(list(self.policy.running)):
            if job is not None and job.remaining == 0:
                self.policy.job_finished(job, self.now)
                self.trace.record(self.now, "finish", job=job.name, cpu=cpu)
                dirty = True
        return dirty

    def _allocate(self):
        previous = list(self.policy.running)
        allocation = self.policy.allocate(self.now)
        self.context_switches += len(allocation.switches)
        for cpu in allocation.switches:
            job = allocation.assignment[cpu]
            old = previous[cpu]
            if old is not None and old.remaining > 0 and old is not job:
                self.trace.record(self.now, "preempt", job=old.name, cpu=cpu)
            if job is not None:
                self.trace.record(self.now, "dispatch", job=job.name, cpu=cpu)
            else:
                self.trace.record(self.now, "idle", cpu=cpu)

    def run(self, until):
        while self.now < until:
            dirty = False
            if self.now == self._next_tick:
                dirty |= self._process_tick()
                self._next_tick += self.tick
            pending = len(self._arrivals)
            self._process_arrivals()
            dirty |= len(self._arrivals) < pending
            dirty |= self._process_completions()
            if dirty:
                self._allocate()

            candidates = [self._next_tick]
            if self._arrivals:
                candidates.append(self._arrivals[0][0])
            for job in self.policy.running:
                if job is not None:
                    candidates.append(self.now + job.remaining)
            next_time = min(min(candidates), until)
            if next_time <= self.now:
                next_time = min(c for c in candidates if c > self.now) if any(
                    c > self.now for c in candidates
                ) else until
                next_time = min(next_time, until)
                if next_time <= self.now:
                    break
            delta = next_time - self.now
            for job in self.policy.running:
                if job is not None:
                    if job.remaining < delta:
                        raise RuntimeError("missed a completion event")
                    job.remaining -= delta
            self.now = next_time
        return self.policy.finished_jobs
