"""Workload definitions and seeded inputs for the indsub benchmark.

Each workload is a fixed list of CLI invocations ("ops") that one fresh
child process drives in order through ``indsub.cli.main``.  Only ``count``
reads random input: its hosts are G(n, p) graphs conditioned on their
expected edge count -- m = round(p * C(n, 2)) edges placed uniformly at
random, the G(n, m) model -- drawn from ``random.Random(seed)`` and written
as graph6 files before the child starts, so the program sees nothing but
the files.  Fixing m keeps the hom DP's cost from swinging with the seed:
with a free edge count, the n = 60 op alone took 4.4 to 6.2 s over three
seeds on a 2-vCPU Xeon.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CATALOG_KS = tuple(range(1, 9))

# The eleven built-in properties of the seed commit, spelled out so that a
# later property added to the program does not silently change the workload.
DIAGNOSE_ZOO = (
    "bipartite", "chordal", "connected", "edge-count-even", "false",
    "no-edges", "perfect", "planar", "split", "triangle-free", "true",
)

# (label, n, p) in generation order; every host is drawn from one stream.
COUNT_HOSTS = (
    ("g60", 60, 0.1),
    ("g500", 500, 0.008),
    ("g80", 80, 0.1),
    ("g30", 30, 0.3),
)

SHARED_HOST_PROPERTIES = (
    "connected", "chordal", "bipartite", "triangle-free", "perfect", "split",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``host`` names the generated graph it reads."""

    id: str
    argv: tuple[str, ...]
    host: str | None = None
    property: str | None = None
    k: int | None = None
    method: str | None = None


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    cold_cache: bool        # fresh empty catalog cache per child
    seeded: bool            # inputs depend on --seed
    ops: tuple[Op, ...]


def _count_op(host: str, prop: str, k: int, method: str = "basis") -> Op:
    return Op(f"count:{prop}:k{k}:{host}:{method}",
              ("count", "--graph", "{" + host + "}", "--property", prop,
               "--k", str(k), "--method", method),
              host=host, property=prop, k=k, method=method)


WORKLOADS = {
    "catalog-cold": Workload(
        "catalog-cold",
        cold_cache=True, seeded=False,
        ops=(Op("catalog:k8:list", ("catalog", "--k", "8", "--list")),),
    ),
    "diagnose": Workload(
        "diagnose",
        cold_cache=False, seeded=False,
        ops=tuple(
            Op(f"diagnose:{name}:k5",
               ("diagnose", "--property", name, "--kmax", "5"),
               property=name, k=5)
            for name in DIAGNOSE_ZOO
        ) + (Op("diagnose:triangle-free:k7",
                ("diagnose", "--property", "triangle-free", "--kmax", "7"),
                property="triangle-free", k=7),),
    ),
    "count": Workload(
        "count",
        cold_cache=False, seeded=True,
        ops=(_count_op("g60", "connected", 6),
             _count_op("g500", "bipartite", 5))
        + tuple(_count_op("g80", prop, 5) for prop in SHARED_HOST_PROPERTIES)
        + (_count_op("g30", "connected", 5, "both"),),
    ),
}


def random_edges(rng: random.Random, n: int, p: float
                 ) -> list[tuple[int, int]]:
    """round(p * C(n, 2)) distinct pairs (u, v), u < v, chosen uniformly,
    in lexicographic order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 258047), written independently of indsub."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    edge_set = set(edges)
    bits = [1 if (i, j) in edge_set else 0
            for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(int("".join(map(str, bits[t:t + 6])), 2) + 63)
        for t in range(0, len(bits), 6))
    return head + body


def count_hosts(seed: int) -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """label -> (n, edges) for every count host, drawn from Random(seed)."""
    rng = random.Random(seed)
    return {label: (n, random_edges(rng, n, p))
            for label, n, p in COUNT_HOSTS}


def write_inputs(workload: Workload, seed: int, directory: Path
                 ) -> tuple[list[tuple[str, ...]], dict]:
    """Write the workload's input files and return (argv per op, hosts).

    Host placeholders ``{label}`` in an op's argv become file paths."""
    hosts = count_hosts(seed) if workload.seeded else {}
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, (n, edges) in hosts.items():
        path = directory / f"{label}.g6"
        path.write_text(graph6(n, edges) + "\n")
        paths["{" + label + "}"] = str(path)
    argvs = [tuple(paths.get(a, a) for a in op.argv) for op in workload.ops]
    return argvs, hosts


def parse_seeds(text: str) -> list[int]:
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out
