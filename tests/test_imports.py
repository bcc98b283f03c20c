"""numpy stays the package's only runtime dependency: every import in
`src/moebalance` is the package itself, numpy, or the standard library."""

import ast
import sys
from pathlib import Path

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
