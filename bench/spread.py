#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --workload count [--seeds 0-9] [--trace 0|1]

Each seed is one ``bench/run.py`` invocation with BENCHMARK.json's
command and run_seconds.  For every metric the script prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and, for end-to-end metrics, the bound and whether the
spread is below a third of it.  Per-layer counts are also checked to be
identical across runs when the workload has no seeded input or every
run used the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, parse_seeds  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() \
            else "{}"
        result = json.loads(line) if proc.returncode == 0 else {}
        runs.append({"seed": seed, "exit": proc.returncode, **result})
        values = {k: round(v["value"], 4)
                  for k, v in result.get("metrics", {}).items()
                  if not k.startswith(("hombasis.", "partitions."))}
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{result.get('correct')} failed {result.get('failed')}/"
              f"{result.get('attempted')} {values if not args.trace else ''}",
              flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)

    ok = all(r["exit"] == 0 and r.get("correct") for r in runs)
    units = {k: v["unit"] for r in runs for k, v in r.get("metrics", {}).items()}
    for name in sorted(units):
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r.get("metrics", {})]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        line = (f"{name:<32} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                f"spread {spread:.3f}  (n={len(values)})")
        if name in bounds:
            steady = spread < bounds[name] / 3
            line += f"  bound {bounds[name]}  {'steady' if steady else 'NOISY'}"
        elif (args.trace and name != "trace.overhead_ratio"
              and units[name] != "s" and len(set(values)) > 1
              and (not WORKLOADS[args.workload].seeded
                   or len({r["seed"] for r in runs}) == 1)):
            line += "  COUNTS DIFFER"
            ok = False
        print(line)
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
