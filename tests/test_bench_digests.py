"""The unseeded benchmark workloads print the bytes the benchmark expects.

bench/expected.json stores the sha256 of each op's standard output.  The
catalog-cold and diagnose ops read no random input, so their digests hold
for every seed; driving those ops through cli.main here makes any byte
drift in the JSON emitter or the graph6 encoder fail the suite without
running the benchmark.  The test reads the digest file and never writes
it.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from indsub.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["catalog-cold", "diagnose"])
def test_unseeded_ops_print_the_stored_digests(name, capsys):
    workload = _workloads()[name]
    assert not workload.seeded
    expected = json.loads((BENCH / "expected.json").read_text())[name]["*"]
    digests = {}
    for op in workload.ops:
        assert main(list(op.argv)) == 0, op.id
        out = capsys.readouterr().out
        digests[op.id] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == expected
    assert len(digests) == {"catalog-cold": 1, "diagnose": 12}[name]
