"""Outside-in tracer: times each indsub layer by wrapping its functions.

The program is not instrumented.  ``Tracer.install`` walks every loaded
``indsub.*`` module, picks the module-level functions it defines (plain
functions and ``lru_cache`` wrappers), and rebinds *every* module
attribute that is one of those objects -- in the defining module and in
every module that imported it with ``from .x import y`` -- to a timing
wrapper.  ``uninstall`` puts the original objects back.

Per (function, caller) the tracer keeps calls, inclusive time and self
time in memory.  The caller is the innermost wrapped function on the
stack.  Inclusive time is added only for the outermost activation of a
function, so recursion is not counted twice; self time is the call's
duration minus the time spent in wrapped callees.  A layer is a module;
its self time is the sum of its functions' self times.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

PACKAGE = "indsub"

# Tiny leaf helpers called millions of times: wrapping them would only
# measure the wrapper.  Their time stays in their callers' self time.
SKIP = frozenset({
    "graphs.bits_of", "graphs.pair_index", "graphs.pair_count",
    "graphs.pair_table", "graphs._pair_index_map",
    "homcount._reachability_cost", "cli._enc",
})


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _is_own_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if inspect.isfunction(obj):
        return not (inspect.isgeneratorfunction(obj)
                    or inspect.iscoroutinefunction(obj))
    return callable(obj) and hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self.loopfree_quotients = 0
        self.hom_pairs: set = set()
        self.bytes_written = 0
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "partitions.quotient": self._on_quotient,
            "homcount.count_hom": self._on_count_hom,
            "catalog._write_cache": self._on_write_cache,
        }

    # -------------------------------------------------------------- hooks

    def _on_quotient(self, args, kwargs, result) -> None:
        if not result.loops:
            self.loopfree_quotients += 1

    def _on_count_hom(self, args, kwargs, result) -> None:
        pattern, host = args[0], args[1]
        self.hom_pairs.add((pattern.n, pattern.edges, pattern.loops,
                            host.n, host.neighbors))

    def _on_write_cache(self, args, kwargs, result) -> None:
        self.bytes_written += os.path.getsize(args[1])

    # ------------------------------------------------------------ patching

    def modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE
                                        or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self.modules()
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                name = f"{_layer(mod.__name__)}.{attr}"
                if (_is_own_function(obj, mod.__name__)
                        and getattr(obj, "__name__", None) == attr
                        and name not in SKIP):
                    wrappers[id(obj)] = (obj, self._wrap(obj, name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def _wrap(self, fn, name: str):
        stack = self._stack
        depth = self._depth
        stats = self.stats
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((name, caller))
                if rec is None:
                    rec = stats[(name, caller)] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth[name]:
                    rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__traced__ = name
        return wrapper

    # ------------------------------------------------------------- queries

    def calls(self, name: str, caller: str | None = None) -> int:
        return sum(rec[0] for (fn, by), rec in self.stats.items()
                   if fn == name and (caller is None or by == caller))

    def inclusive(self, name: str, caller: str | None = None) -> float:
        return sum(rec[1] for (fn, by), rec in self.stats.items()
                   if fn == name and (caller is None or by == caller))

    def self_time(self, name: str) -> float:
        return sum(rec[2] for (fn, _), rec in self.stats.items() if fn == name)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(rec[2] for (fn, _), rec in self.stats.items()
                   if fn.startswith(prefix))

    def table(self) -> list[dict]:
        """Every (function, caller) row, sorted by self time."""
        rows = [{"function": fn, "caller": by, "calls": rec[0],
                 "inclusive_s": rec[1], "self_s": rec[2]}
                for (fn, by), rec in self.stats.items()]
        rows.sort(key=lambda r: (-r["self_s"], r["function"], r["caller"]))
        return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, canon_entries_before: int,
                  canon_entries_after: int, output_bytes: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced child.
    Values are (value, unit) pairs."""
    t = tracer
    canon_calls = t.calls("canon._canonical_data")
    misses = canon_entries_after - canon_entries_before
    quotients = t.calls("partitions.quotient")
    hom_calls = t.calls("homcount.count_hom")
    return {
        "catalog.build_s": (t.inclusive("catalog._build_classes"), "s"),
        "catalog.load_s": (t.inclusive("catalog._read_cache"), "s"),
        "catalog.bytes_written": (t.bytes_written, "B"),
        "canon.calls": (canon_calls, "count"),
        "canon.misses": (misses, "count"),
        "canon.hit_ratio": (_ratio(canon_calls - misses, canon_calls), "ratio"),
        "canon.self_s": (t.layer_self("canon"), "s"),
        "canon.cache_entries": (canon_entries_after, "count"),
        "properties.evaluate_calls": (t.calls("properties.evaluate"), "count"),
        "properties.evaluate_s": (t.inclusive("properties.evaluate"), "s"),
        "hombasis.hom_vector_calls": (t.calls("hombasis.hom_vector"), "count"),
        "hombasis.self_s": (t.layer_self("hombasis"), "s"),
        "partitions.quotients": (quotients, "count"),
        "partitions.quotients_loopfree": (t.loopfree_quotients, "count"),
        "partitions.useful_ratio": (_ratio(t.loopfree_quotients, quotients),
                                    "ratio"),
        "partitions.quotient_s": (t.inclusive("partitions.quotient"), "s"),
        "spectrum.self_s": (t.layer_self("spectrum"), "s"),
        "hardness.clique_minor_s": (
            t.inclusive("hardness.largest_clique_minor"), "s"),
        "homcount.treewidth_s": (t.inclusive("homcount.exact_treewidth"), "s"),
        "hardness.self_s": (t.layer_self("hardness"), "s"),
        "homcount.count_hom_calls": (hom_calls, "count"),
        "homcount.distinct_ratio": (_ratio(len(t.hom_pairs), hom_calls),
                                    "ratio"),
        "homcount.td_calls": (t.calls("homcount.tree_decomposition"), "count"),
        "homcount.td_s": (t.inclusive("homcount.tree_decomposition"), "s"),
        # count_hom minus the decompositions it builds: the DP itself,
        # wherever homcount keeps it
        "homcount.dp_s": (t.inclusive("homcount.count_hom")
                          - t.inclusive("homcount.tree_decomposition",
                                        caller="homcount.count_hom"), "s"),
        "counting.basis_self_s": (t.self_time("counting.count_basis"), "s"),
        "counting.brute_s": (t.inclusive("counting.count_brute"), "s"),
        "counting.brute_subsets": (
            t.calls("properties.evaluate", caller="counting.count_brute"),
            "count"),
        "graphs.load_host_s": (t.inclusive("graphs.load_host_graph"), "s"),
        "cli.self_s": (t.layer_self("cli"), "s"),
        "cli.output_bytes": (output_bytes, "B"),
    }
