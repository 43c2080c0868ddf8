"""Every "module.function" name the bench tracer reads is a function it can
wrap in indsub.<module>.

bench/tracer.py wraps the plain functions and lru_cache wrappers that each
indsub module defines, and its per-layer metrics look them up by name: the
names passed to Tracer.calls, inclusive and self_time, the keys of its
_hooks and the entries of SKIP.  A src/ change that renames or inlines one
of them leaves its metric at 0 without failing anything, so this test
reads those names from the tracer's source and resolves each one.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

ALLOWED_MODULES = {
    "partitions": "module deleted with the class-level coefficient "
                  "pipeline; its four metrics are ROADMAP item 1",
}


def _tracer_names() -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("calls", "inclusive", "self_time")):
            names.update(arg.value for arg in
                         [*node.args, *(kw.value for kw in node.keywords)]
                         if isinstance(arg, ast.Constant))
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.value, ast.Dict)
              and ast.unparse(node.targets[0]) == "self._hooks"):
            names.update(key.value for key in node.value.keys)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and ast.unparse(node.targets[0]) == "SKIP"):
            names.update(elt.value for elt in ast.walk(node.value)
                         if isinstance(elt, ast.Constant))
    return names


def _wrappable(module_name: str, attr: str) -> bool:
    """A function or an lru_cache wrapper that the module defines under
    that name, as the tracer looks for them."""
    obj = getattr(importlib.import_module(module_name), attr, None)
    return (getattr(obj, "__module__", None) == module_name
            and getattr(obj, "__name__", None) == attr
            and (inspect.isfunction(obj) or hasattr(obj, "cache_info")))


def test_tracer_names_resolve_to_wrappable_functions():
    names = _tracer_names()
    # the three places the tracer names functions were all found
    assert {"catalog._build_classes", "catalog._write_cache",
            "homcount.count_hom", "graphs.pair_index"} <= names
    missing = sorted(
        name for name in names
        if name.split(".")[0] not in ALLOWED_MODULES
        and not _wrappable(f"indsub.{name.split('.')[0]}",
                           name.split(".", 1)[1]))
    assert missing == []
