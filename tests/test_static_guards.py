"""Static checks over the source of src/indsub.

No floating point: no float or complex literal, no call to float, round
or complex, math imported only for its integer functions, and every /
a Path join, whose right operand is a str or an f-string.  Results are
integers and Fractions, and this keeps them so.

One edge-bitset builder: graphs.pair_bits is the only code that turns
vertex pairs into an edge bitset, so pair_table, the pair order those
bitsets use, is read in no module but graphs.py.

One subset-table builder: graphs.subset_sums is the only code that builds
a per-bit lookup table (entry d combines the weights of the set bits of
d), so outside it no subscript is indexed by an XOR, as in table[d ^ low],
and no list is extended by a comprehension over itself, as in
t += [e | w for e in t].
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "indsub"
MODULES = sorted(PACKAGE.glob("*.py"))
INTEGER_MATH = {"comb", "factorial", "isqrt", "ceil", "prod"}


def _floating_point(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "round", "complex"):
            found.append(f"{where}: call to {node.func.id}")
        elif isinstance(node, ast.Import) and \
                any(a.name == "math" for a in node.names):
            found.append(f"{where}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: math.{a.name}" for a in node.names
                      if a.name not in INTEGER_MATH]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if not (isinstance(right, ast.JoinedStr) or
                    isinstance(right, ast.Constant) and
                    isinstance(right.value, str)):
                found.append(f"{where}: / {ast.unparse(right)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert _floating_point(ast.parse(path.read_text(), str(path))) == []


def test_the_float_guard_finds_each_kind():
    source = ("from math import comb, sqrt\nimport math\nx = 0.5 + 1j\n"
              "y = float(2) + round(x)\nz = a / b\nw = p / 'q' / f'{r}'\n"
              "v /= 2\n")
    found = {f.split(": ", 1)[1] for f in _floating_point(ast.parse(source))}
    assert found == {"math.sqrt", "import math", "literal 0.5", "literal 1j",
                     "call to float", "call to round", "/ b", "/ 2"}


def _reads_pair_table(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == "pair_table" or
        isinstance(node, ast.Attribute) and node.attr == "pair_table" or
        isinstance(node, ast.alias) and node.name == "pair_table"
        for node in ast.walk(tree))


def test_only_graphs_reads_pair_table():
    readers = [p.name for p in MODULES
               if _reads_pair_table(ast.parse(p.read_text(), str(p)))]
    assert readers == ["graphs.py"]
    assert _reads_pair_table(ast.parse("from .graphs import pair_table as t"))
    assert _reads_pair_table(ast.parse("graphs.pair_table(3)"))


def _subset_table_loops(tree: ast.Module, builder=None) -> list[str]:
    """Subset-table loops in tree outside the function named builder."""
    inside = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.FunctionDef) and top.name == builder
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Subscript) and \
                isinstance(node.slice, ast.BinOp) and \
                isinstance(node.slice.op, ast.BitXor):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.AugAssign) and \
                isinstance(node.op, ast.Add) and \
                isinstance(node.value, ast.ListComp) and \
                any(ast.unparse(gen.iter) == ast.unparse(node.target)
                    for gen in node.value.generators):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_subset_sums_builds_subset_tables(path):
    builder = "subset_sums" if path.name == "graphs.py" else None
    tree = ast.parse(path.read_text(), str(path))
    assert _subset_table_loops(tree, builder) == []


def test_the_subset_table_guard_finds_each_kind():
    source = ("def subset_sums(ws):\n    t = [0]\n    for w in ws:\n"
              "        t += [e + w for e in t]\n    return t[0 ^ 0]\n"
              "lo[x] = lo[x ^ low] | image[v]\n"
              "for w in ws:\n    table += [e | w for e in table]\n"
              "u += [e for e in t]\nv = w[a & b]\n")
    tree = ast.parse(source)
    assert _subset_table_loops(tree, "subset_sums") == [
        "line 6: lo[x ^ low]", "line 8: table += [e | w for e in table]"]
    assert len(_subset_table_loops(tree)) == 4
