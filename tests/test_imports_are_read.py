"""Every name that a module in src/indsub, scripts or tests imports is
read in that module.

A name counts as read when a Name node loads it anywhere in the module,
annotations included.  `from __future__ import annotations` binds no name
the module reads, and indsub/__init__.py imports its public names to
re-export them through __all__, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for d in ("src/indsub", "scripts", "tests")
    for p in (ROOT / d).glob("*.py"))


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.partition(".")[0]
                      for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    if path == ROOT / "src" / "indsub" / "__init__.py":
        read |= _exported(tree)
    assert sorted(_imported(tree) - read) == []

