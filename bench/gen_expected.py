#!/usr/bin/env python3
"""Regenerate bench/expected.json: the output digest of every op.

Usage (from the repository root; takes about 20 s per count seed):

    python3 bench/gen_expected.py

It stores digests for every workload, and for ``count`` for SEEDS plus
the held-out HELD_OUT_SEEDS.  Digests are taken from the program at the
current commit, so run this only on a commit whose outputs are trusted,
and only when a workload changes.  Every output is cross-checked before it is stored:

- catalog-cold: 12,346 classes on 8 vertices, labelled copies k!/aut
  summing to 2^28, distinct graph6 strings, and a class count per edge
  number that is symmetric under complement;
- diagnose: each record's f_i lies in 0..C(d, i), d = C(k, 2), and h, the
  Hamming weight and beta follow from f;
- count: every report passes the run-time checks, and every count whose
  C(n, k) subsets fit count_brute's default budget equals the independent
  numpy enumeration in bench/oracle.py.
"""

from __future__ import annotations

import json
import shutil
import sys
from math import comb, factorial

import run
from run import SRC, WORK, WORKLOADS, count_report_problem, run_child
from workloads import CATALOG_KS, write_inputs

sys.path.insert(0, str(SRC))

from indsub.counting import DEFAULT_SUBSET_BUDGET  # noqa: E402
from indsub.graphs import SmallGraph  # noqa: E402
from indsub.properties import evaluate, get_property  # noqa: E402
from oracle import induced_counts  # noqa: E402

SEEDS = list(range(32))
# not used while the benchmark was tuned, so claims can be rechecked on it
HELD_OUT_SEEDS = [1000]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"cross-check failed: {message}")


def check_catalog(report: dict) -> None:
    entries = report["entries"]
    by_m = report["classes_by_edge_count"]
    require(report["classes"] == "12346" == str(len(entries)), "class count")
    require(report["labeled_total"] == str(1 << 28), "labelled total")
    require(sum(int(e["copies"]) for e in entries) == 1 << 28,
            "copies do not sum to 2^28")
    require(all(int(e["copies"]) * int(e["aut"]) == factorial(8)
                for e in entries), "copies * aut != 8!")
    require(len({e["graph6"] for e in entries}) == len(entries),
            "repeated class")
    require(by_m == by_m[::-1] and sum(map(int, by_m)) == 12346,
            "edge-count profile not complement-symmetric")


def check_diagnose(report: dict) -> None:
    for rec in report["records"]:
        k, d = int(rec["k"]), int(rec["d"])
        f = [int(x) for x in rec["f"]]
        where = f"{report['property']} k={k}"
        require(d == k * (k - 1) // 2 and len(f) == d + 1, f"{where}: d")
        require(all(0 <= f[i] <= comb(d, i) for i in range(d + 1)),
                f"{where}: f_i outside 0..C(d, i)")
        h = [sum((-1) ** (ell - i) * comb(d - i, ell - i) * f[i]
                 for i in range(ell + 1)) for ell in range(d + 1)]
        require([int(x) for x in rec["h"]] == h, f"{where}: h")
        hw = sum(1 for x in f if x)
        require(int(rec["hw"]) == hw and int(rec["beta"]) == d - hw,
                f"{where}: hw/beta")


def predicate(name: str):
    phi = get_property(name)
    return lambda k, edges: evaluate(phi, SmallGraph.from_edges(k, edges))


def check_count(wl, reports, hosts) -> None:
    for op, rep in zip(wl.ops, reports):
        problem = count_report_problem(op, rep, hosts)
        require(problem is None, f"{op.id}: {problem}")
    wanted = {}
    for op in wl.ops:
        n = hosts[op.host][0]
        if comb(n, op.k) <= DEFAULT_SUBSET_BUDGET:
            wanted.setdefault((op.host, op.k), set()).add(op.property)
    truth = {}
    for (host, k), names in sorted(wanted.items()):
        n, edges = hosts[host]
        counts = induced_counts(n, edges, k,
                                {p: predicate(p) for p in sorted(names)})
        truth.update({(host, k, p): c for p, c in counts.items()})
    checked = 0
    for op, rep in zip(wl.ops, reports):
        want = truth.get((op.host, op.k, op.property))
        if want is None:
            continue
        got = [rep["basis"], rep["brute"]] if op.method == "both" \
            else [rep["count"]]
        require(all(int(g) == want for g in got),
                f"{op.id}: program {got}, oracle {want}")
        checked += 1
    print(f"  {checked} of {len(wl.ops)} counts match the oracle")


def generate(workload: str, seed: int, run_dir) -> dict:
    wl = WORKLOADS[workload]
    argvs, hosts = write_inputs(wl, seed, run_dir / "inputs")
    if wl.cold_cache:
        preload, cache = (), run_dir / "cold"
    else:
        preload, cache = CATALOG_KS, run.warm_catalog_dir(run_dir)
    result = run_child(run_dir, "gen", cache, preload=preload, argvs=argvs,
                       keep_stdout=True, timeout=900)
    require(result is not None, f"{workload} child failed")
    for op, res in zip(wl.ops, result["ops"]):
        require(res["rc"] == 0, f"{op.id}: {res['stderr']}")
    reports = [json.loads(res["stdout"]) for res in result["ops"]]
    if workload == "catalog-cold":
        check_catalog(reports[0])
    if workload == "diagnose":
        for rep in reports:
            check_diagnose(rep)
    if workload == "count":
        check_count(wl, reports, hosts)
    return {op.id: res["digest"] for op, res in zip(wl.ops, result["ops"])}


def main() -> int:
    data = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() \
        else {}
    data["held_out_seeds"] = HELD_OUT_SEEDS
    run_dir = WORK / "gen-expected"
    for workload in sorted(WORKLOADS):
        wl = WORKLOADS[workload]
        table = data.setdefault(workload, {})
        for seed in (SEEDS + HELD_OUT_SEEDS if wl.seeded else [0]):
            print(f"{workload} seed {seed}", flush=True)
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            table[str(seed) if wl.seeded else "*"] = generate(
                workload, seed, run_dir)
            run.EXPECTED.write_text(json.dumps(data, indent=1,
                                               sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
