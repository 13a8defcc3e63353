"""Every public function, class and method in the package is used somewhere.

A helper that only its own unit test calls is dead weight: it has to be
kept correct and documented, yet no run depends on it. The scan reads the
ASTs of the package modules (``__init__`` only re-exports, so it is left
out) and of ``scripts/``. A public top-level function or class, or a public
method of a top-level class, passes when some ``Name``, ``Attribute`` or
``from``-import in those files refers to it by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kept on purpose although no program file calls them
ALLOWED = {
    "round_payoffs": "tests use it as an oracle independent of the edge round",
    "run": "the one-population entry point that bench/ and the tests call; "
    "run_scenario runs its replicates through run_replicates",
    "zd_pinned_payoff": "the paper's pinned-payoff formula, checked by acceptance criterion 2",
}


def _sources():
    files = sorted((ROOT / "src" / "netgames").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files if p.name != "__init__.py"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unused_public_helpers():
    trees = _sources()
    used = {name for tree in trees.values() for name in _references(tree)}
    defined = {(path, name) for path, tree in trees.items() for name in _definitions(tree)}
    unused = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path, name in defined
        if not name.startswith("_") and name not in used and name not in ALLOWED
    )
    assert unused == []
    # an allow-list entry outlives its helper unnoticed otherwise
    assert set(ALLOWED) <= {name for _, name in defined}
