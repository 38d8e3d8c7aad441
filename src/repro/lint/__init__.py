"""``repro.lint`` -- deterministic static checking before anything runs.

Five passes over the reproduction's input kinds, sharing one
diagnostic model (:class:`~repro.lint.diagnostics.Diagnostic`):

- :mod:`repro.lint.asm` -- CFG/dataflow/WCET analysis of assembled
  MicroBlaze-subset programs;
- :mod:`repro.lint.absint` -- interval abstract interpretation over the
  same programs: inferred loop bounds, memory/stack safety proofs, and
  path-pruned verified WCETs (ASM1xx rules);
- :mod:`repro.lint.tasks` -- task-table and schedulability linting for
  the offline analysis pipeline;
- :mod:`repro.lint.concurrency` -- lockset race detection and
  lock-order deadlock detection over recorded traces;
- :mod:`repro.lint.determinism` -- AST lint of the simulator's own
  Python for nondeterminism (wall clocks, unseeded RNGs, set order).

``repro-lint`` (:mod:`repro.lint.cli`) exposes all five on the command
line; ``docs/LINT.md`` catalogues every rule code.  The package
re-exports nothing: import a pass from its submodule, so that loading
one pass (the experiment runner's task-set check) does not load the
others.
"""
