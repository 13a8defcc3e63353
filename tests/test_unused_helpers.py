"""Every function, class, method and private constant in the package is used somewhere.

A helper that only its own unit test calls is dead weight: it has to be
kept correct and documented, yet no run depends on it. The scan reads the
ASTs of the package modules (``__init__`` only re-exports, so it is left
out) and of ``scripts/``. A top-level function or class, a method of a
top-level class, or a ``_``-prefixed module constant passes when some
``Name`` read, ``Attribute`` or ``from``-import in those files refers to it
by name. Dunders are exempt: Python calls them.
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
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unused(checked):
    """Definitions for which ``checked(name)`` holds that nothing refers to."""
    trees = _sources()
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path, tree in trees.items()
        for name in _definitions(tree)
        if checked(name) and name not in used and name not in ALLOWED
    )


def test_no_unused_public_helpers():
    assert _unused(lambda name: not name.startswith("_")) == []
    # an allow-list entry outlives its helper unnoticed otherwise
    defined = {name for tree in _sources().values() for name in _definitions(tree)}
    assert set(ALLOWED) <= defined


def test_no_unused_private_helpers():
    assert _unused(lambda name: name.startswith("_") and not name.endswith("__")) == []
