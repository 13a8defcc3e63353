"""The package imports only the standard library, numpy and itself.

numpy is the one dependency pyproject declares. The scan reads the AST of
every module in ``src/netgames`` and checks the top-level name of each
``import`` and absolute ``from`` import; relative imports are the package's own.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netgames"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "netgames"}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_numpy():
    foreign = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imported(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[0] not in ALLOWED
    )
    assert foreign == []
