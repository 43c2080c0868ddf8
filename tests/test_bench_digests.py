"""The unseeded benchmark workloads print the bytes the benchmark expects.

bench/expected.json stores the sha256 of each op's standard output.  The
catalog-cold and diagnose ops read no random input, so their digests hold
for every seed; driving those ops through cli.main here makes any byte
drift in the JSON emitter or the graph6 encoder fail the suite without
running the benchmark.  The test reads the digest file and never writes
it.  The diagnose ops' plain-text reports, which the benchmark does not
run, are pinned here.
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


# sha256 of each diagnose op's standard output with --text appended.
DIAGNOSE_TEXT_SHA256 = {
    "diagnose:bipartite:k5":
        "906216f084ec489e9126ca21b220160346f01aeda9dcd2f6eb5aee84d9f14518",
    "diagnose:chordal:k5":
        "a305d4092aadf1c8741fb2819de5bac4cb79d59b5aef448f2d9d42d05aec9fae",
    "diagnose:connected:k5":
        "66e4dfc9af99671bf27d61d04e4526fb3b5a120de2bfc6499f5e410246626d51",
    "diagnose:edge-count-even:k5":
        "4ddfd30d76d222214048ebfc6201723079201c25da369fa6f6158e6a61d19912",
    "diagnose:false:k5":
        "25be2e5b808da4e6b7aa69d53ee8b5676fd57a094b06300229c70e45bb531678",
    "diagnose:no-edges:k5":
        "7d9f414c5a94d6e2eb6410fd53da4cd3d295942308051de46a09e4b99a77c3a1",
    "diagnose:perfect:k5":
        "12c04f9338b2cefe9e1be6bb57eecb5c8ba9aff57fb847d6e5040917548990f7",
    "diagnose:planar:k5":
        "46bcbe89a15d1bc10c9a85a18f102d43c9a7ac4856abf18ebb6e84a7274deb1a",
    "diagnose:split:k5":
        "cfc3d0d48f6ec990e44f01cdc1f500b5dd908cc62a26d61fcd0c2880e9d1ce0a",
    "diagnose:triangle-free:k5":
        "9308ababdd974920393bf56dba350a3fa29687b6a5f48d6631f6a175e8ccc1dd",
    "diagnose:triangle-free:k7":
        "ef64d2ff6bff06fcf86edbd9bf737d4c8e331dd5496b29c02d94749b5b19a4d0",
    "diagnose:true:k5":
        "9d6143a1a87408a8723393f4eb947def3ba0c290f99cb803c9e76bfb5ca6f557",
}


def test_diagnose_text_prints_the_pinned_digests(capsys):
    digests = {}
    for op in _workloads()["diagnose"].ops:
        assert main([*op.argv, "--text"]) == 0, op.id
        out = capsys.readouterr().out
        digests[op.id] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == DIAGNOSE_TEXT_SHA256
    assert len(digests) == 12
