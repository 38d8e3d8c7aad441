"""Every module of ``repro`` is reached from something the project ships.

The roots are the console scripts in ``pyproject.toml`` and every
Python file under ``bench/``, ``benchmarks/`` and ``examples/``.  The
walk follows imports (top-level and function-local) through ``ast``.
A ``from pkg import name`` reaches the submodule that defines ``name``,
not everything ``pkg/__init__.py`` re-exports, so a module kept alive
only by a package re-export and its own tests shows up as unreached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ROOT_DIRS = ("bench", "benchmarks", "examples")

# The two soundness oracles that the ROADMAP item "One soundness oracle
# across rungs" merges into one module; until then only tests reach them.
EXPECTED_UNREACHED = {"repro.analysis.hyperperiod", "repro.simulators.validation"}


def module_path(name):
    """Source file of module or package ``name`` under ``src/``, or None."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def is_package(name):
    return (SRC.joinpath(*name.split(".")) / "__init__.py").is_file()


def imports_of(path, package):
    """``(module, names)`` for each import in ``path``; ``names`` is None
    for a plain ``import module``.  Relative imports resolve against
    ``package``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            yield module, [alias.name for alias in node.names]


def defining_modules(module, name):
    """Modules of ``repro`` that ``from module import name`` reaches."""
    if module_path(module) is None:
        return set()
    if module_path(f"{module}.{name}") is not None:
        submodule = f"{module}.{name}"
        return set() if is_package(submodule) else {submodule}
    if not is_package(module):
        return {module}
    # A package: follow the re-export to the submodule that defines it.
    for source, names in imports_of(module_path(module), module):
        if names and name in names:
            return defining_modules(source, name)
    return set()  # defined in the package's own __init__


def edges(path, package):
    reached = set()
    for module, names in imports_of(path, package):
        if names is None:
            if module_path(module) and not is_package(module):
                reached.add(module)
            continue
        for name in names:
            reached |= defining_modules(module, name)
    return reached


def script_modules():
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r'=\s*"([\w.]+):\w+"', section.group(1)))


def reached_modules():
    frontier = set(script_modules())
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            frontier |= edges(path, directory)
    reached = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier |= edges(module_path(module), module.rsplit(".", 1)[0])
    return reached


def all_modules():
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_script_roots_exist():
    scripts = script_modules()
    assert "repro.experiments.figure4" in scripts
    assert all(module_path(module) for module in scripts)


def test_from_package_import_reaches_the_defining_submodule():
    assert defining_modules("repro.core", "MPDPScheduler") == {"repro.core.mpdp"}
    assert defining_modules("repro", "TICK") == set()
    assert defining_modules("repro.hw", "isa") == {"repro.hw.isa"}


def test_only_the_known_oracles_are_unreached():
    assert all_modules() - reached_modules() == EXPECTED_UNREACHED
