"""End-to-end tests of the command-line interface via main(argv)."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import indsub.catalog as catalog
import indsub.cli as cli
import indsub.counting as counting_module
from indsub.cli import main
from indsub.counting import count_brute
from indsub.graphs import HostGraph, SmallGraph
from indsub.properties import get_property

from oracles import brute_independent_set_count, reference_emit

README = Path(__file__).resolve().parents[1] / "README.md"


PETERSEN_G6 = "IheA@GUAo"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def assert_no_raw_numbers(obj):
    """Every integer in a report must be serialized as a decimal string."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        raise AssertionError(f"raw JSON number {obj!r} leaked into a report")
    if isinstance(obj, list):
        for item in obj:
            assert_no_raw_numbers(item)
        return
    assert isinstance(obj, dict)
    for value in obj.values():
        assert_no_raw_numbers(value)


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text(PETERSEN_G6 + "\n")
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.g6"
    path.write_text(SmallGraph.cycle(4).to_graph6() + "\n")
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(SmallGraph.cycle(5).to_graph6() + "\n")
    return str(path)


def test_catalog_report(capsys):
    data = run_json(capsys, ["catalog", "--k", "4"])
    assert_no_raw_numbers(data)
    assert data["k"] == "4"
    assert data["classes"] == "11"
    assert data["labeled_total"] == "64"
    assert data["classes_by_edge_count"] == ["1", "1", "2", "3", "2", "1", "1"]
    assert "entries" not in data


def test_catalog_list_entries(capsys):
    data = run_json(capsys, ["catalog", "--k", "3", "--list"])
    assert [e["graph6"] for e in data["entries"]] == ["B?", "BG", "BW", "Bw"]
    assert [e["aut"] for e in data["entries"]] == ["6", "2", "2", "6"]
    assert [e["copies"] for e in data["entries"]] == ["1", "3", "3", "1"]


def test_catalog_reads_no_edge_deletion_map(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a map beside the catalog read")

    monkeypatch.setattr(catalog, "_class_map_cached", refuse)
    monkeypatch.setattr(catalog, "compute_edge_deletions", refuse)
    data = run_json(capsys, ["catalog", "--k", "8", "--list"])
    assert data["classes"] == "12346"


def test_catalog_list_prints_the_stored_graph6(capsys, monkeypatch):
    cat = catalog.build_catalog(8)

    def refuse(self):
        raise AssertionError("graph6 encoded")

    monkeypatch.setattr(SmallGraph, "to_graph6", refuse)
    data = run_json(capsys, ["catalog", "--k", "8", "--list"])
    assert [e["graph6"] for e in data["entries"]] == list(cat.graph6)


def _catalog_report(k: int) -> dict:
    """The catalog --list report for k, built with lists."""
    cat = catalog.build_catalog(k)
    by_edge_count = [0] * (k * (k - 1) // 2 + 1)
    for edges in cat.edges:
        by_edge_count[edges.bit_count()] += 1
    return {"k": k, "classes": len(cat.graph6),
            "labeled_total": sum(factorial(k) // a for a in cat.auts),
            "classes_by_edge_count": by_edge_count,
            "entries": [{"graph6": g6, "edges": edges.bit_count(), "aut": a,
                         "copies": factorial(k) // a}
                        for g6, edges, a in zip(cat.graph6, cat.edges,
                                                cat.auts)]}


class _Discard:
    """A standard output that drops what it is given."""

    def write(self, text):
        return len(text)


class _Writes:
    """A standard output that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_catalog_listing_is_written_in_bounded_pieces(monkeypatch):
    report = _catalog_report(8)
    # a piece ends at the first entry boundary past PIECE_PARTS parts, and
    # an entry has 6 parts
    parts = []
    cli._enc(report, parts, "\n")
    bound = (cli.PIECE_PARTS + 6) * max(map(len, parts))
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["catalog", "--k", "8", "--list"]) == 0
    assert "".join(stdout.writes) == reference_emit(report)
    assert len(stdout.writes) >= 2
    assert max(map(len, stdout.writes)) <= bound


def test_catalog_listing_keeps_no_report_in_memory(monkeypatch):
    """With the catalog built, listing its 12,346 classes traces a peak
    below 2 MB: no list of entries and no joined report text (about
    9.5 MB when the listing built both)."""
    catalog.build_catalog(8)
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        assert main(["catalog", "--k", "8", "--list"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_catalog_k_out_of_range(capsys):
    code, _, err = run(capsys, ["catalog", "--k", "99"])
    assert code == 1
    assert err.startswith("usage error:")


def test_spectrum_report(capsys):
    data = run_json(capsys, ["spectrum", "--property", "no-edges", "--k", "4"])
    assert_no_raw_numbers(data)
    assert data["property"] == "no-edges"
    assert data["f"] == ["1", "0", "0", "0", "0", "0", "0"]
    assert data["hw"] == "1"
    assert data["beta"] == "5"
    assert data["poised"] is True


def test_spectrum_from_truth_table(capsys, tmp_path):
    table = tmp_path / "connected3.tt"
    table.write_text("# connected on three vertices\nk=3\n0011\n")
    got = run_json(capsys, ["spectrum", "--truth-table", str(table),
                            "--k", "3"])
    want = run_json(capsys, ["spectrum", "--property", "connected",
                             "--k", "3"])
    assert got["f"] == want["f"] and got["h"] == want["h"]


def test_spectrum_rejects_repeated_truth_table_section(capsys, tmp_path):
    table = tmp_path / "twice.tt"
    table.write_text("k=2\n01\nk=2\n10\n")
    code, out, err = run(capsys, ["spectrum", "--truth-table", str(table),
                                  "--k", "2"])
    assert code == 1 and not out
    assert "repeated section for k=2" in err


def test_spectrum_property_options_are_exclusive(capsys, c4_file):
    code, _, err = run(capsys, ["spectrum", "--property", "connected",
                                "--forbidden-induced", c4_file, "--k", "3"])
    assert code == 1
    assert err.startswith("usage error:")


def test_homvector_report(capsys):
    data = run_json(capsys, ["homvector", "--property", "connected",
                             "--k", "3"])
    assert_no_raw_numbers(data)
    assert data == [
        {"graph6": "A_", "numerator": "-1", "denominator": "2"},
        {"graph6": "BW", "numerator": "1", "denominator": "2"},
        {"graph6": "Bw", "numerator": "-1", "denominator": "3"},
    ]


def test_readme_homvector_example_is_the_cli_output(capsys):
    lines = README.read_text().splitlines()
    start = lines.index("$ indsub homvector --property connected --k 3") + 1
    end = lines.index("", start)
    code, out, _ = run(capsys, ["homvector", "--property", "connected",
                                "--k", "3"])
    assert code == 0
    assert out == "\n".join(lines[start:end]) + "\n"


_KEYS = st.one_of(st.text(max_size=6),
                  st.sampled_from(["", "\x00", "\n\t", '"\\', "\x7f",
                                   "é", "\u2028", "\U0001f600"]))
_LEAVES = st.one_of(
    st.text(max_size=6), st.integers(),
    st.integers(-(1 << 300), 1 << 300), st.booleans(), st.none(),
    st.fractions())


class _Lazy(list):
    """An array the emitter is handed as a generator."""


def _with_generators(value):
    """value with every _Lazy array in it made a generator of its items."""
    if isinstance(value, dict):
        return {key: _with_generators(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_with_generators(item) for item in value]
        return (item for item in items) if type(value) is _Lazy \
            else type(value)(items)
    return value


_REPORTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=4).map(_Lazy),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=24)


@settings(max_examples=300)
@given(_REPORTS)
@example(_Lazy())
@example({"entries": _Lazy([_Lazy(), 1, {"a": _Lazy([None])}])})
def test_emitter_matches_json_dumps(report):
    """The emitter writes what json.dumps writes for the report, with any
    array handed over as a generator, the empty one included."""
    out = []
    cli._enc(_with_generators(report), out, "\n")
    assert "".join(out) + "\n" == reference_emit(report)


def _loaded_by_importing_the_cli(names: set[str]) -> list[str]:
    """The modules among names that `import indsub.cli` loads in a fresh
    interpreter with PYTHONPATH=src."""
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import sys, indsub.cli; "
              f"print(sorted({sorted(names)!r} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return ast.literal_eval(proc.stdout)


def test_importing_the_cli_loads_neither_logging_nor_uuid():
    # catalog imports logging only when a cache warning fires and names
    # its temporary files without uuid, which keeps both out of start-up.
    assert _loaded_by_importing_the_cli({"logging", "uuid"}) == []


def test_importing_the_cli_loads_no_dataclasses():
    # The records are NamedTuples and graphs.Frozen subclasses, which
    # generate no methods at import; dataclasses would also load inspect,
    # ast, dis and tokenize.
    assert _loaded_by_importing_the_cli({"dataclasses", "inspect"}) == []


def test_count_both_methods(capsys, petersen_file):
    data = run_json(capsys, ["count", "--property", "connected",
                             "--graph", petersen_file, "--k", "3",
                             "--method", "both"])
    assert_no_raw_numbers(data)
    assert data["basis"] == data["brute"] == "30"
    assert data["equal"] is True
    assert data["host_vertices"] == "10"
    assert data["host_edges"] == "15"


def test_count_single_method(capsys, petersen_file):
    data = run_json(capsys, ["count", "--property", "triangle-free",
                             "--graph", petersen_file, "--k", "4",
                             "--method", "basis"])
    assert data["count"] == str(count_brute(
        get_property("triangle-free"), 4, HostGraph.from_graph6(PETERSEN_G6)))
    assert "basis" not in data and "brute" not in data


def test_count_with_edge_list_file(capsys, tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text("# a path on three vertices\n3 2\n0 1\n1 2\n")
    data = run_json(capsys, ["count", "--property", "connected",
                             "--graph", str(path), "--k", "2"])
    assert data["count"] == "2"


def test_count_budget_exceeded(capsys, petersen_file):
    code, _, err = run(capsys, ["count", "--property", "connected",
                                "--graph", petersen_file, "--k", "5",
                                "--method", "brute", "--budget", "10"])
    assert code == 1
    assert err.startswith("budget exceeded:")


def test_count_rejects_negative_budget(capsys, petersen_file):
    code, out, err = run(capsys, ["count", "--property", "connected",
                                  "--graph", petersen_file, "--k", "3",
                                  "--method", "brute", "--budget", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


def test_count_method_disagreement_exits_2(capsys, petersen_file, monkeypatch):
    monkeypatch.setattr(counting_module, "count_basis",
                        lambda phi, k, host, **kw: 12345)
    code, out, err = run(capsys, ["count", "--property", "connected",
                                  "--graph", petersen_file, "--k", "3",
                                  "--method", "both"])
    assert code == 2
    assert err.startswith("internal consistency failure:")
    data = json.loads(out)
    assert data["equal"] is False
    assert data["basis"] == "12345" and data["brute"] == "30"


def test_diagnose_json(capsys):
    data = run_json(capsys, ["diagnose", "--property", "triangle-free",
                             "--kmax", "4"])
    assert_no_raw_numbers(data)
    assert data["property"] == "triangle-free"
    assert data["flags_declared"] == ["monotone", "hereditary"]
    assert data["flag_violations"] == []
    assert len(data["records"]) == 4
    rec = data["records"][2]
    assert rec["k"] == "3" and rec["turan"]["r"] == "3"
    assert rec["turan"]["threshold"] == "3/1"
    assert any("monotone route" in line for line in data["classification"])


def test_diagnose_text(capsys):
    code, out, err = run(capsys, ["diagnose", "--property", "connected",
                                  "--kmax", "3", "--text"])
    assert code == 0, err
    assert "property: connected" in out
    assert "k=3 d=3" in out
    assert "classification:" in out


def test_diagnose_kmax_range(capsys):
    code, _, err = run(capsys, ["diagnose", "--property", "connected",
                                "--kmax", "0"])
    assert code == 1 and err.startswith("usage error:")


def test_critical_singleton_certificate(capsys, c5_file):
    data = run_json(capsys, ["critical", "--forbidden", c5_file])
    assert_no_raw_numbers(data)
    (entry,) = data["graphs"]
    cert = entry["certificate"]
    assert cert["confidence"] == "proven"
    assert cert["in_complement"] is False
    assert entry["grid_check"]["status"] == "consistent"
    assert entry["grid_check"]["explosions_checked"] == "25"


def test_critical_known_edge_for_builtin(capsys, c4_file):
    data = run_json(capsys, ["critical", "--forbidden", c4_file,
                             "--property", "chordal", "--bound", "3"])
    (entry,) = data["graphs"]
    # With a named property the twin argument only nominates a candidate...
    assert entry["certificate"]["confidence"] == "candidate"
    assert entry["certificate"]["in_complement"] is True
    # ...but the C4 edge itself is a known critical edge for chordality.
    assert entry["known_edge"]["confidence"] == "known"
    assert entry["known_edge"]["grid_check"]["status"] == "consistent"
    assert entry["known_edge"]["grid_check"]["explosions_checked"] == "16"


def test_critical_empty_file(capsys, tmp_path):
    # reduce-demo reads its forbidden graphs the same way
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    host_file = tmp_path / "host.g6"
    host_file.write_text(SmallGraph.from_edges(2, [(0, 1)]).to_graph6() + "\n")
    for argv in (["critical"],
                 ["reduce-demo", "--bipartite", str(host_file), "--k", "1"]):
        code, out, err = run(capsys, argv + ["--forbidden", str(empty)])
        assert code == 1 and out == ""
        assert err.startswith("malformed graph file:"), argv


def test_critical_rejects_negative_bound(capsys, c5_file):
    code, out, err = run(capsys, ["critical", "--forbidden", c5_file,
                                  "--bound", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


def test_reduce_demo_rejects_negative_bound(capsys, c5_file, tmp_path):
    host_file = tmp_path / "host.g6"
    host_file.write_text(SmallGraph.from_edges(2, [(0, 1)]).to_graph6() + "\n")
    code, out, err = run(capsys, ["reduce-demo", "--bipartite",
                                  str(host_file), "--k", "1",
                                  "--forbidden", c5_file, "--bound", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


def test_reduce_demo_rejects_negative_budget(capsys, c4_file, tmp_path):
    host_file = tmp_path / "host.g6"
    host_file.write_text(SmallGraph.from_edges(4, [(0, 2), (1, 3)]).to_graph6()
                         + "\n")
    code, out, err = run(capsys, ["reduce-demo", "--bipartite",
                                  str(host_file), "--k", "2",
                                  "--forbidden", c4_file, "--property",
                                  "chordal", "--budget", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


def test_reduce_demo_known_edge(capsys, c4_file, tmp_path):
    host_small = SmallGraph.from_edges(6, [(0, 3), (0, 4), (1, 4), (2, 5)])
    host_file = tmp_path / "host.g6"
    host_file.write_text(host_small.to_graph6() + "\n")
    data = run_json(capsys, ["reduce-demo", "--bipartite", str(host_file),
                             "--k", "3", "--forbidden", c4_file,
                             "--property", "chordal"])
    assert_no_raw_numbers(data)
    assert data["edge_basis"] == "known"
    assert data["distinguished_vertices"] == "2"
    assert data["counting_calls"] == "4"
    assert data["equal"] is True
    want = brute_independent_set_count(HostGraph.from_small(host_small), 3)
    assert data["independent_sets_via_reduction"] == str(want)


def test_reduce_demo_singleton_route(capsys, c5_file, tmp_path):
    host_small = SmallGraph.from_edges(4, [(0, 2), (1, 3), (1, 2)])
    host_file = tmp_path / "host.g6"
    host_file.write_text(host_small.to_graph6() + "\n")
    data = run_json(capsys, ["reduce-demo", "--bipartite", str(host_file),
                             "--k", "2", "--forbidden", c5_file])
    assert data["edge_basis"] == "proven"
    assert data["counting_calls"] == "8"
    assert data["equal"] is True
    want = brute_independent_set_count(HostGraph.from_small(host_small), 2)
    assert data["independent_sets_via_reduction"] == str(want)


def test_reduce_demo_rejects_odd_cycle_host(capsys, c5_file, tmp_path):
    host_file = tmp_path / "host.g6"
    host_file.write_text(SmallGraph.complete(3).to_graph6() + "\n")
    code, _, err = run(capsys, ["reduce-demo", "--bipartite", str(host_file),
                                "--k", "2", "--forbidden", c5_file])
    assert code == 1
    assert err.startswith("usage error:")
    assert "not bipartite" in err


def test_reduce_demo_refuted_edge(capsys, tmp_path):
    p3_file = tmp_path / "p3.g6"
    p3_file.write_text(SmallGraph.from_edges(3, [(0, 1), (1, 2)]).to_graph6()
                       + "\n")
    host_file = tmp_path / "host.g6"
    host_file.write_text(SmallGraph.from_edges(2, [(0, 1)]).to_graph6() + "\n")
    # Complement trick: the certificate for P3 sits in the complement, and
    # the inverted forbidden-induced property keeps the identity intact.
    data = run_json(capsys, ["reduce-demo", "--bipartite", str(host_file),
                             "--k", "1", "--forbidden", str(p3_file)])
    assert data["equal"] is True


def test_reduce_demo_mismatch_exits_2(capsys, c4_file, tmp_path, monkeypatch):
    host_file = tmp_path / "host.g6"
    host_file.write_text(SmallGraph.from_edges(2, [(0, 1)]).to_graph6() + "\n")
    monkeypatch.setattr(cli, "count_independent_sets_via_reduction",
                        lambda *a, **kw: 999)
    code, out, err = run(capsys, ["reduce-demo", "--bipartite",
                                  str(host_file), "--k", "1",
                                  "--forbidden", c4_file,
                                  "--property", "chordal"])
    assert code == 2
    assert err.startswith("internal consistency failure:")
    assert json.loads(out)["equal"] is False


def test_selftest(capsys):
    code, out, err = run(capsys, ["selftest"])
    assert code == 0, err
    assert "selftest passed (29 checks)" in out


def test_unknown_property(capsys):
    code, _, err = run(capsys, ["spectrum", "--property", "bogus",
                                "--k", "3"])
    assert code == 1
    assert err.startswith("unknown property:")
    assert "connected" in err  # the message lists the known names


def test_malformed_graph_file(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("!!! not graph6 !!!\n")
    code, _, err = run(capsys, ["count", "--property", "connected",
                                "--graph", str(bad), "--k", "2"])
    assert code == 1
    assert err.startswith("malformed graph file:")


def test_missing_subcommand(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert err.startswith("usage error:")


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert err.startswith("usage error:")


def test_missing_property(capsys, petersen_file):
    code, _, err = run(capsys, ["count", "--graph", petersen_file,
                                "--k", "3"])
    assert code == 1
    assert err.startswith("usage error:")
