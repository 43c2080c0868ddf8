"""Static checks over the source of src/indsub.

No floating point: no float or complex literal, no call to float, round
or complex, math imported only for its integer functions, and every /
a Path join, whose right operand is a str or an f-string.  Results are
integers and Fractions, and this keeps them so.

One edge-bitset builder: graphs.pair_bits is the only code that turns
vertex pairs into an edge bitset, so pair_table, the pair order those
bitsets use, is read in no module but graphs.py.
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
