"""Every ``src/repro`` module has a user besides the tests.

A module that only its own tests import is code the system never runs.
This scans ``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast`
for an importer of each module other than the module itself.  Importing
``a.b.c`` (or ``from a.b import c``) uses ``a``, ``a.b`` and ``a.b.c``,
so a package ``__init__`` that imports a submodule counts as its user.
``__main__`` modules are run by ``python -m``, not imported, and are not
checked.
"""

import ast
import functools
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCANNED = ("src", "benchmarks", "examples")

#: Modules with no importer in the scanned trees, and why they stay.
ALLOWED = {
    "repro.core.analysis": "paper Eq. (1) and its closed forms",
    "repro.perflab.gates": "CI runs it as `python -m repro.perflab.gates`",
    "repro.chaos.drills": "the ops-API drills that tests/test_ops.py runs",
}


def _module_name(path, base):
    parts = os.path.relpath(path, base)[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _imported(path, module):
    """Every dotted name one file's import statements load."""
    is_package = path.endswith("__init__.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.split(".")
                if not is_package:
                    package.pop()
                package = package[: len(package) - (node.level - 1)]
                base = ".".join(package + ([base] if base else []))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            names.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return names


@functools.lru_cache(maxsize=None)
def _users():
    """Dotted name -> the scanned modules that import it."""
    users = {}
    for tree in SCANNED:
        for path in _python_files(os.path.join(ROOT, tree)):
            base = SRC if tree == "src" else ROOT
            module = _module_name(path, base)
            for name in _imported(path, module):
                if name != module:
                    users.setdefault(name, set()).add(module)
    return users


MODULES = sorted(
    _module_name(path, SRC)
    for path in _python_files(os.path.join(SRC, "repro"))
    if not path.endswith("__main__.py")
)


def test_scan_sees_the_known_users():
    users = _users()
    assert "repro.__main__" in users["repro.cli"]
    # ``from repro.epc import fastpath`` uses the submodule too.
    assert "repro.epc.gateway" in users["repro.epc.fastpath"]
    # A package __init__ counts as its submodules' importer.
    assert "repro.utils" in users["repro.utils.bits"]
    # A relative import inside benchmarks/e2e resolves to its package.
    assert "benchmarks.e2e.harness" in users["benchmarks.e2e.oracle"]


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ALLOWED])
def test_module_has_a_user(module):
    importers = _users().get(module, set())
    assert importers, f"{module} is imported by nothing in {', '.join(SCANNED)}"


def test_allowlist_names_only_unused_modules():
    users = _users()
    assert set(ALLOWED) <= set(MODULES)
    assert [m for m in ALLOWED if users.get(m)] == []
