"""Fold a ``cProfile`` run into the repository's layers.

Every module under ``src/repro`` belongs to exactly one layer (the
``bench/tests`` suite checks that, so a new module cannot silently land
in ``python``).  Stdlib process-pool machinery running in the profiled
(parent) process is ``pool``; everything else is ``python``.

A function's self time goes to the layer owning its source file.
Built-in functions have no file: their self time goes to the layers of
the Python functions that called them, in proportion to the time each
caller spent in them, so ``heapq.heappush`` inside the event engine
counts as ``sim``.  ``<layer>.calls`` counts calls of the Python
functions a layer defines.
"""

from __future__ import annotations

import os
import pstats
import sysconfig
from typing import Dict, Optional, Tuple

from bench import SRC

#: Layers in report order.
LAYERS = (
    "sim", "hw.bus", "hw.intc", "hw.microblaze", "hw.isa", "hw.memory",
    "kernel", "core", "simulators.tlm", "simulators.theoretical",
    "simulators.baselines", "simulators", "analysis", "workloads",
    "trace", "perf", "obs", "faults", "experiments", "lint", "repro",
    "pool", "python",
)

#: Layer of every module of a package whose modules all share one layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.kernel": "kernel",
    "repro.core": "core",
    "repro.simulators": "simulators",
    "repro.analysis": "analysis",
    "repro.workloads": "workloads",
    "repro.trace": "trace",
    "repro.perf": "perf",
    "repro.obs": "obs",
    "repro.faults": "faults",
    "repro.experiments": "experiments",
    "repro.lint": "lint",
}

#: Layers named module by module; these win over :data:`PACKAGE_LAYERS`.
#: ``repro.hw`` has no package-wide layer, so each of its modules must
#: appear here.
MODULE_LAYERS: Dict[str, str] = {
    "repro": "repro",
    "repro.verify": "repro",
    "repro.hw": "hw.microblaze",
    "repro.hw.bus": "hw.bus",
    "repro.hw.crossbar": "hw.bus",
    "repro.hw.monitor": "hw.bus",
    "repro.hw.intc": "hw.intc",
    "repro.hw.microblaze": "hw.microblaze",
    "repro.hw.timer": "hw.microblaze",
    "repro.hw.peripherals": "hw.microblaze",
    "repro.hw.soc": "hw.microblaze",
    "repro.hw.sync_engine": "hw.microblaze",
    "repro.hw.ipcore": "hw.microblaze",
    "repro.hw.isa": "hw.isa",
    "repro.hw.assembler": "hw.isa",
    "repro.hw.asmlib": "hw.isa",
    "repro.hw.memory": "hw.memory",
    "repro.hw.cache": "hw.memory",
    "repro.simulators.tlm": "simulators.tlm",
    "repro.simulators.theoretical": "simulators.theoretical",
    "repro.simulators.baselines": "simulators.baselines",
}

#: Stdlib packages and modules counted as ``pool``.
POOL_MODULES = ("concurrent.futures", "multiprocessing", "threading",
                "selectors", "pickle")

_STDLIB_DIR = sysconfig.get_paths()["stdlib"]


def layer_of_module(module: str) -> str:
    """Layer owning a dotted module name."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = PACKAGE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    for pool_module in POOL_MODULES:
        if module == pool_module or module.startswith(pool_module + "."):
            return "pool"
    return "python"


def module_of_file(path: str, root: str) -> Optional[str]:
    """Dotted module name of ``path`` below the import root ``root``."""
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(root))
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_file(path: str) -> str:
    """Layer owning a source file (``python`` for unknown files)."""
    module = module_of_file(path, SRC)
    if module is None or not module.startswith("repro"):
        module = module_of_file(path, _STDLIB_DIR)
    return layer_of_module(module) if module else "python"


FuncKey = Tuple[str, int, str]


def _is_builtin(func: FuncKey) -> bool:
    return func[0] == "~"


def fold_profile(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"self_s": seconds, "calls": count}`` of a profile."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    file_layer: Dict[str, str] = {}

    def owner(func: FuncKey, seen: frozenset = frozenset()) -> str:
        if not _is_builtin(func):
            if func[0] not in file_layer:
                file_layer[func[0]] = layer_of_file(func[0])
            return file_layer[func[0]]
        # A built-in called from a built-in: follow its busiest caller.
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        candidates = [c for c in callers if c not in seen]
        if not candidates:
            return "python"
        busiest = max(candidates, key=lambda c: (callers[c][2], c))
        return owner(busiest, seen | {func})

    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in table.items():
        if not _is_builtin(func):
            layer = owner(func)
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        attributed = 0.0
        for caller, caller_stats in callers.items():
            share = caller_stats[2]
            out[owner(caller, frozenset({func}))]["self_s"] += share
            attributed += share
        # Time no caller entry accounts for (e.g. the profiler's own
        # ``disable`` call) stays with the interpreter.
        out["python"]["self_s"] += max(0.0, tt - attributed)
    return out
