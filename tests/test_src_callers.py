"""Every module-level function and class in src/indsub, every method of
its classes, and every field of its records has a caller.  A record is a
NamedTuple, among them the field bases that validating subclasses extend
with __new__, or a graphs.Frozen subclass; its fields are the names
annotated in its class body.

Code that only tests call belongs in tests/, so each definition must be
referenced by some code in src/indsub or scripts (a Name or Attribute node
outside its own definition; import lines and docstrings do not count), be
exported through indsub.__all__, or be on the allow-list below with its
reason.  A method or field counts as called when any attribute of its name
is read, whatever the object; dunder methods, which Python calls itself,
are not checked.  Exporting a class does not exempt its methods or fields.
An allow-list entry that the first two rules already cover fails the test,
so the list holds only the definitions that need it.
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
    "HomVector.coefficient": "exported result type's lookup of a(H) for any "
                             "pattern H",
    "CanonicalForm.relabeling": "documented canon API: the relabeling that "
                                "achieves the canonical form",
    "SmallGraph._make": "namedtuple's _replace builds through it, so "
                        "_replace runs the checks of __new__",
    "ExplosionSpec._make": "namedtuple's _replace builds through it, so "
                           "_replace runs the checks of __new__",
    "BirkhoffMatrix._make": "namedtuple's _replace builds through it, so "
                            "_replace runs the checks of __new__",
    "_Plan.orders": "the compiled-join tests rebuild bag shapes from it",
    "_Plan.levels": "the compiled-join tests rebuild bag shapes from it",
}


def _referenced(node: ast.AST, skip=()) -> set[str]:
    """Names and attribute names read below node, outside the subtrees
    in skip; an attribute name is entered a second time with a leading
    dot, which is how a method or field is looked up, so that a local
    variable named like one does not count as reading it."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if any(sub is s for s in skip):
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out |= {sub.attr, "." + sub.attr}
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _methods(stmt: ast.stmt) -> list:
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [m for m in stmt.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def _is_record(stmt: ast.ClassDef) -> bool:
    """A NamedTuple or Frozen subclass: its annotated class-body names are
    fields."""
    return any(isinstance(n, ast.Name) and n.id in ("NamedTuple", "Frozen")
               for n in stmt.bases)


def _fields(stmt: ast.stmt) -> list:
    """The Name nodes that declare a record's fields."""
    if not isinstance(stmt, ast.ClassDef) or not _is_record(stmt):
        return []
    return [f.target for f in stmt.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def _definitions_and_references():
    """(name, allow-list key, qualified name) of every definition under
    src/indsub, a method's or field's name with a leading dot, and every
    name that src/ and scripts/ code reads."""
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
            fields = _fields(stmt)
            names = _referenced(stmt, skip=methods + fields)
            for meth in methods:
                names |= _referenced(meth) - {"." + meth.name}
                key = f"{stmt.name}.{meth.name}"
                if in_package:
                    defined.append(("." + meth.name, key,
                                    f"{path.stem}.{key}"))
            for field in fields:
                key = f"{stmt.name}.{field.id}"
                if in_package:
                    defined.append(("." + field.id, key,
                                    f"{path.stem}.{key}"))
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
    names = {key: name for name, key, _ in defined}
    assert {"SmallGraph.adj_rows", "GraphCatalog.index_of",
            "GraphCatalog.class_count"} <= set(names)
    assert not any(key.endswith("__new__") for key in names)
    # a method is looked up as an attribute, never as a bare name
    assert names["SmallGraph.adj_rows"] == ".adj_rows"


def test_record_fields_are_checked():
    defined, _ = _definitions_and_references()
    keys = {key for _, key, _ in defined}
    # a NamedTuple's fields, those of a NamedTuple base that a validating
    # subclass extends, one with a default, and a Frozen subclass's
    assert {"_Plan.joins", "ReductionInstance.ghat", "_ClassMap.check",
            "_SmallGraph.edges", "HostGraph.neighbors",
            "GraphCatalog.auts"} <= keys
