#!/usr/bin/env python3
"""Replay one benchmark workload through two source trees in one process.

Usage (from the repository root):

    python3 scripts/ab_replay.py TREE_A TREE_B --workload NAME
                                 [--pairs N] [--seed N]

Each TREE is a checkout that holds src/indsub.  Its package is copied into
a temporary directory under a name of its own (indsub_a, indsub_b) and
imported from there, so both trees run in one interpreter and a slow
stretch of shared cores falls on both alike.  The ops are those of the
workload NAME in this checkout's bench/workloads.py (count's hosts drawn
with --seed), run through each tree's cli.main with their output captured.

Warm workloads read one cache directory per tree, which an untimed run of
the ops fills with catalogs and maps before timing starts; catalog-cold
gets a fresh empty directory for every run.  Before each timed run every
cache_clear-able object of both trees is cleared, catalogs k = 1..8 are
preloaded (warm workloads only, as bench/run.py does) and garbage is
collected.  Pair i runs A first when i is even and B first when it is odd.
An op that exits with a nonzero status stops the replay.

Prints one JSON object: the median seconds of each tree, the ratio of B's
median to A's, the number of pairs in which B was faster, and whether
every run of both trees printed the same output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import CATALOG_KS, WORKLOADS, write_inputs  # noqa: E402


def load_tree(source: Path, package: str, packages: Path):
    """The cli and catalog modules of source's src/indsub, imported as
    package from a copy under packages."""
    shutil.copytree(source / "src" / "indsub", packages / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{package}.cli"),
            importlib.import_module(f"{package}.catalog"))


def clear_caches(packages) -> None:
    """Empty every lru_cache of the modules of packages, as a new process
    starts: among them the plans and the plan tables read from plan
    files, so a timed run reads the plan files again."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] in packages:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run(tree, argvs, cache_dir: Path, preload, packages) -> tuple[float, str]:
    """Seconds the ops take in tree, and the digest of their output."""
    cli, catalog = tree
    os.environ["INDSUB_CACHE_DIR"] = str(cache_dir)
    clear_caches(packages)
    for k in preload:
        catalog.build_catalog(k)
    gc.collect()
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        if rc != 0:
            raise SystemExit(f"{cli.__name__} {' '.join(argv)}: exit {rc}")
        outputs.append(out.getvalue())
    seconds = time.perf_counter() - start
    return seconds, hashlib.sha256("".join(outputs).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="ab-replay-") as tmp:
        work = Path(tmp)
        argvs, _ = write_inputs(workload, args.seed, work / "inputs")
        sys.path.insert(0, str(work / "packages"))
        packages = ("indsub_a", "indsub_b")
        trees = [load_tree(source, package, work / "packages")
                 for source, package in zip((args.tree_a, args.tree_b),
                                            packages)]
        preload = () if workload.cold_cache else CATALOG_KS
        if not workload.cold_cache:
            for tag, tree in zip("ab", trees):
                run(tree, argvs, work / f"warm-{tag}", preload, packages)
        seconds: dict[str, list[float]] = {"a": [], "b": []}
        digests = set()
        for i in range(args.pairs):
            order = "ab" if i % 2 == 0 else "ba"
            for tag in order:
                cache_dir = (work / f"cold-{tag}-{i}" if workload.cold_cache
                             else work / f"warm-{tag}")
                took, digest = run(trees[tag == "b"], argvs, cache_dir,
                                   preload, packages)
                seconds[tag].append(took)
                digests.add(digest)
                if workload.cold_cache:
                    shutil.rmtree(cache_dir)
    median_a = statistics.median(seconds["a"])
    median_b = statistics.median(seconds["b"])
    print(json.dumps({
        "workload": args.workload, "pairs": args.pairs,
        "median_a_s": median_a, "median_b_s": median_b,
        "ratio": median_b / median_a,
        "b_faster": sum(map(float.__gt__, seconds["a"], seconds["b"])),
        "same_output": len(digests) == 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
