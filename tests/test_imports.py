"""numpy stays the package's only runtime dependency: every import in
`src/moebalance` is the package itself, numpy, or the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "moebalance"
ALLOWED = {"moebalance", "numpy"}


def imported_roots(tree: ast.AST):
    """(line, top-level module) of every absolute import; relative ones stay in the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_numpy_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line} imports {root}"
        for path in sources
        for line, root in imported_roots(ast.parse(path.read_text()))
        if root not in ALLOWED and root not in sys.stdlib_module_names
    ]
    assert foreign == []


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"))
def test_each_module_imports_on_its_own(module):
    """`moebalance` imports none of its modules, so an import cycle would
    break only the orders that enter it at the wrong module."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-B", "-c", f"import moebalance.{module}"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


# defined for a caller that is still to come: ROADMAP item 4 reports the
# replica memory of each buffer scheme through it. `SplitPlan.fractions` is
# the per-expert view of a split that `benchmarks/refeval.py`
# (`bundle_entry_times`) reads; the package reads the split's columns.
UNREFERENCED_ALLOWED = {"replica_memory", "fractions"}


def test_every_definition_has_a_caller_in_the_package():
    """Every function, class and method in `src/moebalance` is named
    somewhere else in the package; a re-export in `__init__` is no caller.
    Dunder methods are called by Python itself."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {}
    used: set[str] = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif name != "__init__.py" and isinstance(node, ast.Name):
                used.add(node.id)
            elif name != "__init__.py" and isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        f"{where} {name}" for name, where in defined.items()
        if name not in used and not name.startswith("__") and name not in UNREFERENCED_ALLOWED
    )
    assert unused == []
