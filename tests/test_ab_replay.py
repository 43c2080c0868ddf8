"""Smoke test of scripts/ab_replay.py: one pair of catalog-cold runs
through two copies of this tree, which print the same output."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_replay_of_identical_trees():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_replay.py"), str(ROOT),
         str(ROOT), "--workload", "catalog-cold", "--pairs", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert report["workload"] == "catalog-cold" and report["pairs"] == 1
    assert report["same_output"] and report["b_faster"] in (0, 1)
    assert report["ratio"] == report["median_b_s"] / report["median_a_s"] > 0
