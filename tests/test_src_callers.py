"""Every module-level function and class in src/indsub, and every method
of its classes, has a caller.

Code that only tests call belongs in tests/, so each definition must be
referenced by some code in src/indsub or scripts (a Name or Attribute node
outside its own definition; import lines and docstrings do not count), be
exported through indsub.__all__, or be on the allow-list below with its
reason.  A method counts as called when any attribute of its name is read,
whatever the object; dunder methods, which Python calls itself, are not
checked.  Exporting a class does not exempt its methods.  An allow-list
entry that the first two rules already cover fails the test, so the list
holds only the definitions that need it.
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
    "SmallGraph.with_edge": "exported graph type's inverse of without_edge",
    "SmallGraph.relabel": "exported graph type's vertex renaming",
    "SmallGraph.to_edge_list_text": "writes the edge-list text that "
                                    "load_small_graph reads",
    "HostGraph.to_edge_list_text": "writes the edge-list text that "
                                   "load_host_graph reads",
    "HomVector.coefficient": "exported result type's lookup of a(H) for any "
                             "pattern H",
}


def _referenced(node: ast.AST, skip=()) -> set[str]:
    """Names and attribute names read below node, outside the subtrees
    in skip."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if any(sub is s for s in skip):
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _methods(stmt: ast.stmt) -> list:
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [m for m in stmt.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def _definitions_and_references():
    """(name, allow-list key, qualified name) of every definition under
    src/indsub, and every name that src/ and scripts/ code reads."""
    defined = []
    referenced = set()
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    for path in sources:
        in_package = path.parent == PACKAGE
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                referenced |= _referenced(stmt)
                continue
            methods = _methods(stmt)
            names = _referenced(stmt, skip=methods)
            for meth in methods:
                names |= _referenced(meth) - {meth.name}
                key = f"{stmt.name}.{meth.name}"
                if in_package:
                    defined.append((meth.name, key, f"{path.stem}.{key}"))
            names.discard(stmt.name)
            referenced |= names
            if in_package:
                defined.append((stmt.name, stmt.name,
                                f"{path.stem}.{stmt.name}"))
    return defined, referenced


def test_every_src_definition_has_a_caller():
    defined, referenced = _definitions_and_references()
    exported = set(indsub.__all__)
    orphans = sorted(qualified for name, key, qualified in defined
                     if name not in referenced and key not in exported
                     and key not in ALLOWED)
    assert not orphans, f"defined in src/ but called by no src/ or " \
                        f"scripts/ code: {orphans}"
    assert set(ALLOWED) <= {key for _, key, _ in defined}
    redundant = sorted(key for name, key, _ in defined if key in ALLOWED
                       and (name in referenced or key in exported))
    assert not redundant, f"allowed although src/ or scripts/ code " \
                          f"already calls them: {redundant}"


def test_methods_are_checked():
    defined, _ = _definitions_and_references()
    keys = {key for _, key, _ in defined}
    assert {"SmallGraph.adj_rows", "GraphCatalog.index_of",
            "GraphCatalog.class_count"} <= keys
    assert not any(key.endswith("__post_init__") for key in keys)
