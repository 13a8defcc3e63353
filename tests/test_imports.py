"""The package imports only the standard library, numpy and itself.

numpy is the one dependency pyproject declares. The scan reads the AST of
every module in ``src/netgames`` and checks the top-level name of each
``import`` and absolute ``from`` import; relative imports are the package's own.
A fresh interpreter checks what ``import netgames`` loads.
"""

import ast
import os
import subprocess
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


def test_import_leaves_the_process_pool_out():
    # only a parallel run_scenario needs concurrent.futures.process, a sixth of
    # the import time every command and worker start pays
    code = "import sys, netgames; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "False"
