"""Every module-level function and class in src/indsub has a caller.

Code that only tests call belongs in tests/, so each top-level definition
must be referenced by some code in src/indsub or scripts (a Name or
Attribute node outside its own definition; import lines and docstrings do
not count), be exported through indsub.__all__, or be on the allow-list
below with its reason.
"""

import ast
from pathlib import Path

import indsub

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "indsub"

ALLOWED = {
    "canonical_form": "documented canon API: the form with its relabeling",
    "automorphism_count": "documented canon API: #Aut of a small graph",
    "load_small_graph": "small-graph file loader pinned by the fuzz tests",
}


def _referenced(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _definitions_and_references():
    defined = []
    referenced = set()
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(stmt.name)
                if path.parent == PACKAGE:
                    defined.append((stmt.name, f"{path.stem}.{stmt.name}"))
            referenced |= names
    return defined, referenced


def test_every_src_definition_has_a_caller():
    defined, referenced = _definitions_and_references()
    exported = set(indsub.__all__)
    orphans = sorted(qualified for name, qualified in defined
                     if name not in referenced and name not in exported
                     and name not in ALLOWED)
    assert not orphans, f"defined in src/ but called by no src/ or " \
                        f"scripts/ code: {orphans}"
    assert set(ALLOWED) <= {name for name, _ in defined}
