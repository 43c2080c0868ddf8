"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _bindings():
    mods = Tracer().modules()
    return {(mod.__name__, attr): obj
            for mod in mods for attr, obj in vars(mod).items()}


def test_tracer_rebinds_imported_names_and_restores_them():
    import indsub  # noqa: F401
    from indsub import canon, catalog, hombasis

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # catalog calls the private canonicaliser through its own binding
        assert getattr(catalog._canonical_data, "__traced__", None) == \
            "canon._canonical_data"
        assert catalog._canonical_data is canon._canonical_data
        assert hombasis.canon_key is canon.canon_key
        assert getattr(hombasis.canon_key, "__traced__", None) == \
            "canon.canon_key"
        assert catalog._canonical_data.__wrapped__ is \
            before[("indsub.canon", "_canonical_data")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


QUOTIENT_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from indsub import hombasis
from indsub.properties import get_property
from tracer import Tracer
tracer = Tracer()
tracer.install()
hombasis.hom_vector(get_property("no-edges"), 4)
tracer.uninstall()
print(json.dumps({"quotients": tracer.calls("partitions.quotient"),
                  "loopfree": tracer.loopfree_quotients,
                  "hom_vector": tracer.calls("hombasis.hom_vector")}))
"""


def test_tracer_counts_quotients_in_fresh_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", QUOTIENT_SCRIPT, str(BENCH_DIR), str(run.SRC)],
        env=run.child_env(tmp_path / "cache"), capture_output=True,
        text=True, timeout=120, check=True)
    counts = json.loads(proc.stdout)
    # 11 classes on 4 vertices, each expanded through all 15 partitions
    assert counts["quotients"] == 165
    assert counts["hom_vector"] == 1
    assert 0 < counts["loopfree"] < 165


def test_inputs_are_byte_deterministic_per_seed(tmp_path):
    wl = workloads.WORKLOADS["count"]

    def files(seed, name):
        workloads.write_inputs(wl, seed, tmp_path / name)
        return {p.name: p.read_bytes()
                for p in sorted((tmp_path / name).iterdir())}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first != other
    assert sorted(first) == sorted(f"{label}.g6" for label, _, _ in
                                   workloads.COUNT_HOSTS)


def test_graph6_writer_matches_the_program_reader():
    from indsub.graphs import HostGraph

    for label, (n, edges) in workloads.count_hosts(3).items():
        host = HostGraph.from_graph6(workloads.graph6(n, edges))
        assert host.n == n
        assert host.edge_pairs() == edges, label


TINY = workloads.Workload(
    "tiny", cold_cache=True, seeded=False,
    ops=(workloads.Op("catalog:k3", ("catalog", "--k", "3")),
         workloads.Op("diagnose:connected:k3",
                      ("diagnose", "--property", "connected", "--kmax", "3"),
                      property="connected", k=3)))


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "EXPECTED", tmp_path / "expected.json")
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    argvs, _ = workloads.write_inputs(TINY, 0, tmp_path / "inputs")
    probe = run.run_child(tmp_path, "probe", tmp_path / "probe-cache",
                          argvs=argvs, timeout=120)
    assert probe is not None and all(op["rc"] == 0 for op in probe["ops"])
    digests = {op.id: res["digest"] for op, res in zip(TINY.ops, probe["ops"])}

    def run_with(stored, *, trace=False, name="run"):
        run.EXPECTED.write_text(json.dumps({"tiny": {"*": stored}}))
        return run.run_workload("tiny", 0, 0.0, trace, tmp_path / name)

    return digests, run_with


def test_stored_digests_pass(tiny):
    digests, run_with = tiny
    res = run_with(digests)
    assert (res["attempted"], res["failed"]) == (2, 0)
    assert len(res["setup_s"]) == 2 and res["wall_s"][0] > 0


def test_tampered_digest_counts_as_one_failed_op(tiny):
    digests, run_with = tiny
    tampered = dict(digests, **{"catalog:k3": "0" * 64})
    res = run_with(tampered)
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert res["problems"] == [("catalog:k3",
                                "output digest differs from the stored one")]


def test_traced_counts_repeat_exactly(tiny):
    digests, run_with = tiny
    first = run_with(digests, trace=True, name="t1")["traced"]["layers"]
    second = run_with(digests, trace=True, name="t2")["traced"]["layers"]
    assert first.keys() == second.keys()
    for key, (value, unit) in first.items():
        if unit != "s":
            assert second[key] == [value, unit], key
    assert first["canon.calls"][0] > 0
    assert first["catalog.bytes_written"][0] > 0


def test_result_metrics_match_benchmark_json(tiny):
    digests, run_with = tiny
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    res = run_with(digests, trace=True)
    assert run.report(res, False).keys() == end_to_end
    assert run.report(res, True).keys() == end_to_end | per_layer
