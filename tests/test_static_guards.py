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

Code runs from one module: homcount.py, which compiles the bag joins and
keeps their code objects in the plan files, is the only module that calls
compile, exec or eval or makes a function from a code object with
types.FunctionType.  marshal, which loads code objects, is imported only
there, for the version its plan files are written in, and in catalog.py,
whose one reader and one writer hold every cache file.

One rule for the cache directory: catalog.py is the only module that
names INDSUB_CACHE_DIR, as catalog.CACHE_ENV_VAR or as the string itself,
and no function takes a parameter named cache_dir, so nothing can choose
a directory other than the variable's value at the call.

One JSON writer: cli._emit is the only code that refers to sys.stdout,
and no module calls json.dump or json.dumps, so every report goes out
through cli._enc, in the pieces _emit writes.
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


def _inside(tree: ast.Module, name) -> set[int]:
    """The ids of the nodes of tree within functions named name."""
    return {id(node) for top in ast.walk(tree)
            if isinstance(top, ast.FunctionDef) and top.name == name
            for node in ast.walk(top)}


def _subset_table_loops(tree: ast.Module, builder=None) -> list[str]:
    """Subset-table loops in tree outside the function named builder."""
    inside = _inside(tree, builder)
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


CODE_BUILTINS = ("compile", "exec", "eval")
# where each code-running callable lives, when called as an attribute
CODE_RUNNERS = dict.fromkeys(CODE_BUILTINS, "builtins") | {
    "FunctionType": "types"}


def _code_execution(tree: ast.Module) -> list[str]:
    """Calls of compile, exec or eval (bare or through builtins) and of
    FunctionType (bare or through types), and imports of marshal in
    tree."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in CODE_RUNNERS or \
                    isinstance(func, ast.Attribute) and \
                    func.attr in CODE_RUNNERS and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == CODE_RUNNERS[func.attr]:
                found.append(f"{where}: call to {ast.unparse(func)}")
        elif isinstance(node, ast.Import) and \
                any(a.name == "marshal" for a in node.names):
            found.append(f"{where}: import marshal")
        elif isinstance(node, ast.ImportFrom) and node.module == "marshal":
            found.append(f"{where}: from marshal import")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_homcount_executes_code(path):
    found = _code_execution(ast.parse(path.read_text(), str(path)))
    if path.name == "homcount.py":
        assert {f.split(": ", 1)[1] for f in found} == {
            "call to compile", "call to exec", "call to FunctionType",
            "import marshal"}
    elif path.name == "catalog.py":
        assert [f.split(": ", 1)[1] for f in found] == ["import marshal"]
    else:
        assert found == []


def test_the_code_execution_guard_finds_each_kind():
    source = ("import os, marshal\nfrom marshal import loads\n"
              "exec(compile(s, 'f', 'exec'))\nx = eval('1')\n"
              "builtins.exec(c)\nre.compile(p)\nobj.exec(q)\n"
              "f = FunctionType(c, {})\ng = types.FunctionType(c, {})\n"
              "h = builtins.FunctionType(c)\n")
    assert sorted(_code_execution(ast.parse(source))) == [
        "line 1: import marshal", "line 2: from marshal import",
        "line 3: call to compile", "line 3: call to exec",
        "line 4: call to eval", "line 5: call to builtins.exec",
        "line 8: call to FunctionType", "line 9: call to types.FunctionType"]


CACHE_ENV = ("CACHE_ENV_VAR", "INDSUB_CACHE_DIR")


def _cache_dir_choices(tree: ast.Module) -> list[str]:
    """Names of the cache directory's variable, and parameters named
    cache_dir, in tree."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id in CACHE_ENV or \
                isinstance(node, ast.Attribute) and node.attr in CACHE_ENV:
            found.append(f"{where}: {ast.unparse(node)}")
        elif isinstance(node, ast.alias) and node.name in CACHE_ENV:
            found.append(f"import {node.name}")
        elif isinstance(node, ast.Constant) and node.value in CACHE_ENV:
            found.append(f"{where}: {node.value!r}")
        elif isinstance(node, ast.arguments):
            params = node.posonlyargs + node.args + node.kwonlyargs + \
                [a for a in (node.vararg, node.kwarg) if a is not None]
            found += [f"line {a.lineno}: parameter cache_dir"
                      for a in params if a.arg == "cache_dir"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_catalog_reads_the_cache_dir_variable(path):
    found = _cache_dir_choices(ast.parse(path.read_text(), str(path)))
    if path.name == "catalog.py":
        assert found and all("parameter" not in f for f in found)
    else:
        assert found == []


def test_the_cache_dir_guard_finds_each_kind():
    source = ("from .catalog import CACHE_ENV_VAR\n"
              "a = os.environ.get(catalog.CACHE_ENV_VAR)\n"
              "b = os.getenv('INDSUB_CACHE_DIR')\n"
              "def f(k, *, cache_dir=None): pass\n"
              "g = lambda cache_dir: cache_dir\n"
              "def h(cache_dir_str, **cache_dir): pass\n"
              "c = '# INDSUB_CACHE_DIR is read in catalog.py'\n")
    assert sorted(_cache_dir_choices(ast.parse(source))) == [
        "import CACHE_ENV_VAR", "line 2: catalog.CACHE_ENV_VAR",
        "line 3: 'INDSUB_CACHE_DIR'", "line 4: parameter cache_dir",
        "line 5: parameter cache_dir", "line 6: parameter cache_dir"]


# (module, name) of what writes a report: only cli._emit names sys.stdout
REPORT_WRITERS = {("sys", "stdout"), ("json", "dump"), ("json", "dumps")}


def _report_writers(tree: ast.Module, writer=None) -> list[str]:
    """References to sys.stdout outside the function named writer, and
    to json.dump or json.dumps anywhere, in tree."""
    inside = _inside(tree, writer)
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                (node.value.id, node.attr) in REPORT_WRITERS and \
                (node.value.id == "json" or id(node) not in inside):
            found.append(f"{where}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{where}: from {node.module} import {a.name}"
                      for a in node.names
                      if (node.module, a.name) in REPORT_WRITERS]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_emit_writes_reports(path):
    tree = ast.parse(path.read_text(), str(path))
    if path.name == "cli.py":
        assert [f.split(": ", 1)[1] for f in _report_writers(tree)] == [
            "sys.stdout"]
        assert _report_writers(tree, "_emit") == []
    else:
        assert _report_writers(tree) == []


def test_the_report_writer_guard_finds_each_kind():
    source = ("import json, sys\nfrom sys import stdout, stderr\n"
              "from json import dumps as d, loads\n"
              "def _emit(r):\n    sys.stdout.write(json.dumps(r))\n"
              "print(x, file=sys.stdout)\njson.dump(x, fh)\n"
              "print(x, file=sys.stderr)\njson.loads(s)\nobj.dumps(y)\n"
              "f = json.dumps\n")
    tree = ast.parse(source)
    assert sorted(_report_writers(tree, "_emit")) == [
        "line 11: json.dumps", "line 2: from sys import stdout",
        "line 3: from json import dumps", "line 5: json.dumps",
        "line 6: sys.stdout", "line 7: json.dump"]
    assert "line 5: sys.stdout" in _report_writers(tree)
