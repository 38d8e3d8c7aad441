"""The paper and bench paths load none of the optional stacks.

Every run of ``repro-figure4``, ``repro-report`` and every benchmark
child compiles its whole import closure from source when no bytecode
cache is written.  The ISA interpreter and assembler, the lint passes,
the verified-WCET and sensitivity analyses, the oracle and batch
runners, the sink/Perfetto/report stack, trace export and the Gantt
renderer and the bus monitor run only on their own paths, so importing
what those entry points import must not load them: a package
``__init__`` re-exports only what its importers run, and an optional
path imports inside the function that runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: What the benchmark children and the paper CLIs import.
ENTRY_MODULES = (
    "repro.experiments.figure4",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.analysis",
    "repro.simulators",
    "repro.obs.ledger",
    "repro.obs.spans",
    "repro.perf.cache",
    "repro.perf.executor",
    "repro.perf.isabench",
    "repro.hw.asmlib",
)

#: Modules and packages those imports must not load.
DEFERRED = (
    "repro.hw.isa",
    "repro.hw.assembler",
    "repro.lint",
    "repro.analysis.verified",
    "repro.analysis.sensitivity",
    "repro.simulators.oracle",
    "repro.simulators.batch",
    "repro.obs.perfetto",
    "repro.obs.report",
    "repro.obs.sinks",
    "repro.trace.export",
    "repro.trace.gantt",
    "repro.hw.monitor",
)


def loaded_after_import(modules):
    """The ``repro`` modules a fresh interpreter holds after importing
    ``modules``."""
    script = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'repro' or m.startswith('repro.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(done.stdout)


def is_deferred(module):
    return any(module == entry or module.startswith(entry + ".")
               for entry in DEFERRED)


def test_entry_points_load_no_deferred_module():
    loaded = loaded_after_import(ENTRY_MODULES)
    assert set(ENTRY_MODULES) <= set(loaded)
    assert [module for module in loaded if is_deferred(module)] == []
