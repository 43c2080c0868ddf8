#!/usr/bin/env python3
"""indsub benchmark: end-to-end timings per workload, per-layer tracing.

Usage (from the repository root):

    python3 bench/run.py --workload {catalog-cold,diagnose,count,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload is one fresh child process (bench/child.py)
that imports indsub, loads what the workload needs and then drives the
workload's ops in order through ``indsub.cli.main`` -- a closed loop with
one client.  Process-level caches start cold in every child, as they do
for every user invocation.  Repetitions continue while another one is
expected to finish within --seconds; there is always at least one.

Every op's exit status and output digest are checked; a failing op is
counted, not fatal.  With --trace 0 the last line of output is a JSON
object with the end-to-end metrics; with --trace 1 a separate traced child
(bench/tracer.py) runs after the untraced ones and the JSON also carries
the per-layer metrics, among them the uncorrected times wall_raw_s and
setup_raw_s.  Inputs and catalog caches live under .bench_cache/ in
the repository root; ~/.cache/indsub is never touched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import CATALOG_KS, WORKLOADS, write_inputs  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_cache"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 1
HASH_SEED = "0"
SETUP_SAMPLES = 20         # extra set-up-only children per run
RUN_LIMIT_S = 150.0        # children are killed past this point of a run


class Failure(Exception):
    """The benchmark itself cannot run here (as opposed to a failing op)."""


# ------------------------------------------------------------ children

def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["INDSUB_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(run_dir: Path, tag: str, cache_dir: Path, *, preload=(),
              argvs=(), trace=False, keep_stdout=False,
              timeout: float) -> dict | None:
    """Run one child; return its result with ``setup_s`` added, or None
    when it crashed or timed out."""
    spec_path = run_dir / f"{tag}.spec.json"
    result_path = run_dir / f"{tag}.result.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC), "preload": list(preload), "trace": trace,
        "keep_stdout": keep_stdout, "ops": [list(a) for a in argvs],
        "result": str(result_path)}))
    cache_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
        env=child_env(cache_dir), cwd=str(run_dir),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"child {tag} killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result_path.exists():
        print(f"child {tag} exited {proc.returncode}:\n{err[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["setup_raw_s"] = (result["ready"] - start
                             - result["calibration_before_setup"])
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    return result


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "indsub").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def warm_catalog_dir(run_dir: Path) -> Path:
    """Catalogs k = 1..8 written once per source tree by the program
    itself, outside any timed phase."""
    final = WORK / f"catalogs-{source_hash()}"
    if (final / "ready").exists():
        return final
    tmp = WORK / f"catalogs-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    if run_child(run_dir, "warm", tmp, preload=CATALOG_KS,
                 timeout=900) is None:
        raise Failure("building the warm catalog cache failed")
    (tmp / "ready").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


# ------------------------------------------------------------- checking

def load_expected(workload: str, seed: int) -> dict | None:
    """op id -> digest for this workload and seed, or None if not stored."""
    table = json.loads(EXPECTED.read_text()).get(workload, {})
    key = str(seed) if WORKLOADS[workload].seeded else "*"
    return table.get(key)


def count_report_problem(op, report, hosts) -> str | None:
    """Checks a count report must pass on any seed."""
    n, edges = hosts[op.host]
    fields = {"property": op.property, "k": str(op.k),
              "host_vertices": str(n), "host_edges": str(len(edges)),
              "method": op.method}
    for key, want in fields.items():
        if report.get(key) != want:
            return f"{key} is {report.get(key)!r}, expected {want!r}"
    values = ([report.get("basis"), report.get("brute")]
              if op.method == "both" else [report.get("count")])
    for value in values:
        if not (isinstance(value, str) and value.isdigit()
                and int(value) <= comb(n, op.k)):
            return f"count {value!r} is not in 0..C({n},{op.k})"
    if op.method == "both" and (report.get("equal") is not True
                                or values[0] != values[1]):
        return "basis and brute counts differ"
    return None


# Property containments on one host: each left count is at most the right.
CONTAINED_IN = (("split", "chordal"), ("chordal", "perfect"),
                ("bipartite", "perfect"), ("bipartite", "triangle-free"))


def check_child(workload, result, expected, hosts, reference) -> list[str]:
    """One problem string per failing op ('' for a passing op)."""
    wl = WORKLOADS[workload]
    if result is None:
        return ["child crashed or timed out"] * len(wl.ops)
    problems = []
    counts = {}
    for i, (op, res) in enumerate(zip(wl.ops, result["ops"])):
        problem = ""
        if res["rc"] != 0:
            problem = f"exit status {res['rc']}: {res['stderr'][-300:]}"
        elif expected is not None and expected.get(op.id) != res["digest"]:
            problem = "output digest differs from the stored one"
        elif reference is not None and reference[i] != res["digest"]:
            problem = "output differs between repetitions"
        elif op.host is not None:
            try:
                report = json.loads(res["stdout"] or "")
            except ValueError:
                problem = "output is not a JSON report"
            else:
                problem = count_report_problem(op, report, hosts) or ""
                if not problem and op.method == "basis":
                    counts[(op.host, op.property)] = int(report["count"])
        problems.append(problem)
    for i, op in enumerate(wl.ops):
        for small, big in CONTAINED_IN:
            if (op.property == small and not problems[i]
                    and (op.host, big) in counts
                    and counts[(op.host, small)] > counts[(op.host, big)]):
                problems[i] = f"{small} count exceeds {big} count"
    return problems


# -------------------------------------------------------------- running

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> dict:
    wl = WORKLOADS[workload]
    run_start = time.monotonic()
    run_dir.mkdir(parents=True, exist_ok=True)

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - run_start)

    preload = () if wl.cold_cache else CATALOG_KS
    warm = None if wl.cold_cache else warm_catalog_dir(run_dir)

    def cache_for(tag: str) -> Path:
        return run_dir / f"cold-{tag}" if wl.cold_cache else warm

    argvs, hosts = write_inputs(wl, seed, run_dir / "inputs")
    expected = load_expected(workload, seed)
    if expected is None and not wl.seeded:
        raise Failure(f"no stored digests for {workload}")
    # untimed: compile bytecode and fault in the interpreter's files
    run_child(run_dir, "prime", cache_for("prime"), preload=preload,
              timeout=left())

    children, problems, durations = [], [], []
    reference = None
    measure_start = time.monotonic()
    while True:
        tag = f"rep{len(children)}"
        began = time.monotonic()
        result = run_child(run_dir, tag, cache_for(tag), preload=preload,
                           argvs=argvs, timeout=left())
        durations.append(time.monotonic() - began)
        children.append(result)
        problems.append(check_child(workload, result, expected, hosts,
                                    reference))
        if result is not None and reference is None:
            reference = [op["digest"] for op in result["ops"]]
        elapsed = time.monotonic() - measure_start
        if (result is None or elapsed + max(durations) > seconds
                or max(durations) > left()):
            break

    setups = [c for c in children if c is not None]
    for i in range(SETUP_SAMPLES):
        if left() < 10:
            break
        res = run_child(run_dir, f"setup{i}", cache_for(f"setup{i}"),
                        preload=preload, timeout=left())
        if res is not None:
            setups.append(res)

    traced = None
    if trace:
        traced = run_child(run_dir, "traced", cache_for("traced"),
                           preload=preload, argvs=argvs, trace=True,
                           timeout=left())
        problems.append(check_child(workload, traced, expected, hosts,
                                    reference))

    ok = [c for c in children if c is not None]
    return {
        "workload": workload, "seed": seed, "ops": len(wl.ops),
        "digests_stored": expected is not None,
        "repetitions": len(children),
        "attempted": sum(len(p) for p in problems),
        "failed": sum(1 for p in problems for x in p if x),
        "problems": sorted({(wl.ops[i].id, x) for p in problems
                            for i, x in enumerate(p) if x}),
        "wall_s": [c["wall_s"] for c in ok],
        "setup_s": [c["setup_s"] for c in setups],
        "peak_rss_mb": [c["maxrss_kb"] / 1024 for c in ok],
        "wall_raw_s": [c["wall_raw_s"] for c in ok],
        "setup_raw_s": [c["setup_raw_s"] for c in setups],
        "traced": traced,
    }


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# the same times as measured, before the speed correction (per-layer)
RAW_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s"}


def report(res: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the metrics object: the
    end-to-end metrics, and with ``trace`` also the per-layer ones."""
    name = res["workload"]
    print(f"== {name} (seed {res['seed']}, closed loop, 1 client, "
          f"{res['repetitions']} repetition(s)) ==")
    print(f"  ops_failed   {res['failed']} of {res['attempted']} ops "
          f"attempted ({res['ops']} per repetition; stored digests: "
          f"{'yes' if res['digests_stored'] else 'no, invariant checks only'})")
    for op_id, problem in res["problems"]:
        print(f"    FAILED {op_id}: {problem}")
    metrics = {}
    for key, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        values = res[key]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        print(f"  {key:<12} median {med:.4f} {unit}  q1 {q1:.4f}  "
              f"q3 {q3:.4f}  (n={len(values)})")
        if key in END_TO_END_UNITS or trace:
            metrics[key] = {"value": med, "unit": unit}
    traced = res["traced"]
    if not trace or traced is None:
        return metrics
    layers = {key: {"value": value, "unit": unit}
              for key, (value, unit) in traced["layers"].items()}
    untraced = statistics.median(res["wall_s"]) if res["wall_s"] else 0.0
    layers["trace.overhead_ratio"] = {
        "value": traced["wall_s"] / untraced if untraced else 0.0,
        "unit": "ratio"}
    print(f"  traced wall_s {traced['wall_s']:.4f} s")
    for key, item in layers.items():
        print(f"  {key:<32} {item['value']:.6g} {item['unit']}")
    print("  top functions by self time (function <- caller: calls, self s):")
    for row in traced["functions"][:12]:
        print(f"    {row['function']} <- {row['caller']}: {row['calls']}, "
              f"{row['self_s']:.3f}")
    return {**metrics, **layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (SRC / "indsub" / "cli.py").is_file():
        print(f"error: no indsub sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        results = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace), run_dir / name)
                   for name in names]
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for res in results:
        for key, item in report(res, bool(args.trace)).items():
            metrics[key if len(results) == 1 else f"{res['workload']}.{key}"] = item
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
