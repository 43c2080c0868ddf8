import hashlib
import importlib.util
import itertools
import logging
import os
import random
import subprocess
import sys
import threading
import time
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from indsub import canon, catalog
from indsub.canon import automorphism_count, canon_key, refinement_invariant
from indsub.catalog import (
    CLASS_MAPS,
    MAX_CATALOG_K,
    MAX_FLAG_K,
    build_catalog,
    compute_edge_deletions,
    edge_deletions,
    vertex_deletions,
)
from indsub.counting import count_basis
from indsub.errors import FormatError
from indsub.graphs import HostGraph, SmallGraph, pair_count
from indsub.hombasis import hom_vector
from indsub.properties import get_property, verify_flags
from oracles import (
    brute_automorphism_count,
    extension_count,
    extension_counts_by_class,
    orbit_partition,
    random_small_graph,
    reference_edge_deletions,
    reference_vertex_deletions,
    unpruned_catalog_classes,
    vertex_key,
)

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


@pytest.mark.parametrize("k", range(1, 7))
def test_catalog_matches_orbit_oracle(k, tmp_path):
    cat = build_catalog(k, cache_dir=tmp_path)
    orbits = orbit_partition(k)
    assert cat.class_count == len(orbits) == CLASS_COUNTS[k]
    by_start = {}
    for orbit in orbits:
        for mask in orbit:
            by_start[mask] = orbit
    seen = set()
    for edges, aut in zip(cat.edges, cat.auts):
        orbit = by_start[edges]
        root = min(orbit)
        assert root not in seen           # one class per orbit
        seen.add(root)
        assert factorial(k) // aut == len(orbit)     # labeled copies
        assert aut * len(orbit) == factorial(k)


@pytest.mark.parametrize("k", range(1, 6))
def test_catalog_aut_matches_brute(k):
    cat = build_catalog(k)
    for g, aut in zip(cat.graphs(), cat.auts):
        assert aut == brute_automorphism_count(g)


def test_catalog_entry_order_is_deterministic(tmp_path):
    cat1 = build_catalog(5, cache_dir=tmp_path / "a")
    cat2 = build_catalog(5, cache_dir=tmp_path / "b")
    assert list(cat1.graphs()) == list(cat2.graphs())
    edge_counts = [g.edge_count for g in cat1.graphs()]
    assert edge_counts == sorted(edge_counts)


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_catalog(0)
    with pytest.raises(ValueError):
        build_catalog(MAX_CATALOG_K + 1)


def test_index_of_and_by_edge_count():
    cat = build_catalog(4)
    for i, g in enumerate(cat.graphs()):
        assert cat.index_of(g) == i
    assert cat.index_of(SmallGraph.cycle(4)) == cat.index_of(
        SmallGraph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    by_edge_count = [0] * 7
    for edges in cat.edges:
        by_edge_count[edges.bit_count()] += 1
    assert by_edge_count == [1, 1, 2, 3, 2, 1, 1]


def _canon_index(cat, g):
    return cat._index[canon_key(g)]


def _check_index_of(cat, graphs):
    """index_of agrees with the canonical-form lookup, and each graph has
    its class's invariant, so a singleton bucket always settles it."""
    invariants = [refinement_invariant(g) for g in cat.graphs()]
    for g in graphs:
        want = _canon_index(cat, g)
        assert cat.index_of(g) == want
        assert refinement_invariant(g) == invariants[want]


@pytest.mark.parametrize("k", range(1, 7))
def test_index_of_matches_canon_on_every_labelled_graph(k):
    _check_index_of(build_catalog(k),
                    (SmallGraph(k, mask) for mask in range(1 << pair_count(k))))


@pytest.mark.parametrize("k", [7, 8])
def test_index_of_matches_canon_on_seeded_samples(k):
    rng = random.Random(70 + k)
    _check_index_of(build_catalog(k),
                    (random_small_graph(rng, k, p)
                     for p in (0.2, 0.35, 0.5, 0.65, 0.8) for _ in range(300)))


def test_index_of_finds_shuffled_representatives():
    rng = random.Random(77)
    for k in range(1, 8):
        cat = build_catalog(k)
        for i, g in enumerate(cat.graphs()):
            for _ in range(3):
                perm = list(range(k))
                rng.shuffle(perm)
                assert cat.index_of(g.relabel(perm)) == i


def test_index_of_raises_canon_key_error_outside_the_catalog():
    cat = build_catalog(4)
    outside = [SmallGraph(4, 0b11, loops=0b1), SmallGraph(4, 0, loops=0b1111),
               SmallGraph(4, SmallGraph.cycle(4).edges, loops=0b0101),
               SmallGraph.cycle(5), SmallGraph.complete(3)]
    for g in outside:
        with pytest.raises(KeyError) as want:
            _canon_index(cat, g)
        with pytest.raises(KeyError) as got:
            cat.index_of(g)
        assert got.value.args == want.value.args == (canon_key(g),)


def _refuse(*args, **kwargs):
    raise AssertionError("edge-deletion map computed")


def test_deletion_maps_match_canon_only_reference(tmp_path, monkeypatch):
    # The deletion maps are computed and written, then read back from their
    # files by a process state with no cached catalog or map.
    for k in range(1, 8):
        edge_deletions(k, cache_dir=tmp_path)
    for k in range(2, MAX_FLAG_K + 1):
        vertex_deletions(k, cache_dir=tmp_path)
    catalog._class_map_cached.cache_clear()
    catalog._catalog_cached.cache_clear()
    monkeypatch.setattr(catalog, "compute_edge_deletions", _refuse)
    monkeypatch.setattr(catalog, "compute_vertex_deletions", _refuse)
    for k in range(1, 8):
        assert edge_deletions(k, cache_dir=tmp_path) == \
            reference_edge_deletions(k)
    for k in range(2, MAX_FLAG_K + 1):
        assert vertex_deletions(k, cache_dir=tmp_path) == \
            reference_vertex_deletions(k)


def test_maps_reject_k_outside_their_range():
    # edge_deletions covers the k its readers ask for, 1..7, though the
    # catalogs go up to 8.
    assert [(kind.suffix, kind.ks[0], kind.ks[-1]) for kind in CLASS_MAPS] \
        == [("edges", 1, 7), ("vertices", 2, MAX_FLAG_K), ("quotients", 1, 7),
            ("orders", 1, 7)]
    for kind in CLASS_MAPS:
        for k in (kind.ks[0] - 1, kind.ks[-1] + 1):
            with pytest.raises(ValueError, match=f"{kind.what} cover"):
                kind(k)


def test_edge_deletions_canonicalise_few_graphs():
    cat = build_catalog(7)
    cat.index_of(SmallGraph.empty(7))
    saved = dict(canon._cache)
    canon._cache.clear()
    try:
        compute_edge_deletions(cat)
        assert len(canon._cache) < 1000
    finally:
        canon._cache.update(saved)


def _edges_file(tmp_path, k=5):
    """A fresh directory holding catalogs 1..k and the k-th edge-deletion
    map, with no map cached in the process."""
    edge_deletions(k, cache_dir=tmp_path)
    catalog._class_map_cached.cache_clear()
    return tmp_path / f"k{k}.edges"


def _read_file(kind, k, directory):
    """kind's map for k read from its file in directory, or FormatError."""
    cats = tuple(build_catalog(m, cache_dir=directory)
                 for m in range(kind.lowest(k), k + 1))
    return catalog._read_map(
        directory / f"k{k}.{kind.suffix}",
        catalog._map_header(kind, cats, directory), cats[-1].class_count,
        kind.check(cats))


def _replace_row(text, i, row):
    lines = text.split("\n")
    lines[i + 1] = row
    return "\n".join(lines)


def _other_digest(text, tmp_path):
    other = hashlib.sha256((tmp_path / "k4.catalog").read_bytes()).hexdigest()
    head, rest = text.split("\n", 1)
    return head.rsplit("=", 1)[0] + f"={other}\n{rest}"


# k = 5: class 2 has two edges, and deleting either gives class 1, the one
# class with one edge; class 33 is K5, whose ten deletions all give 32.
EDGES_CORRUPTIONS = {
    "bad header": lambda text, _: "junk\n" + text.split("\n", 1)[1],
    "truncated": lambda text, _: text[:len(text) // 2],
    "index out of range": lambda text, _: _replace_row(
        text, 33, " ".join(["34"] + ["32"] * 9)),
    "target with the wrong edge count": lambda text, _: _replace_row(
        text, 2, "1 0"),
    "digest of another catalog": _other_digest,
}


@pytest.mark.parametrize("corruption", sorted(EDGES_CORRUPTIONS))
def test_corrupt_edge_deletion_map_is_rebuilt_and_logged(corruption,
                                                         tmp_path, caplog):
    path = _edges_file(tmp_path)
    good = path.read_text()
    assert _replace_row(good, 33, " ".join(["32"] * 10)) == good
    assert _replace_row(good, 2, "1 1") == good
    path.write_text(EDGES_CORRUPTIONS[corruption](good, tmp_path))
    with pytest.raises(FormatError):
        _read_file(edge_deletions, 5, tmp_path)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        rows = edge_deletions(5, cache_dir=tmp_path)
    assert rows == reference_edge_deletions(5)
    assert any(f"rebuilding {edge_deletions.what} k=5" in r.getMessage()
               for r in caplog.records)
    assert path.read_text() == good


def test_edge_deletion_map_needs_its_catalog_file(tmp_path, caplog):
    # The catalogs' own writes fail: the map is computed, and not written,
    # since no file exists for its header to name.  A lone missing catalog
    # file is checked for every map below.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert edge_deletions(3, cache_dir=blocker) == \
            reference_edge_deletions(3)
    assert not any("edge-deletion map" in r.getMessage()
                   for r in caplog.records)


_MAP_WRITER = """
import hashlib, sys, time
from pathlib import Path
from indsub.catalog import CLASS_MAPS, build_catalog
directory, tag, name, k = Path(sys.argv[1]), sys.argv[2], sys.argv[3], \\
    int(sys.argv[4])
kind, = (kind for kind in CLASS_MAPS if kind.suffix == name)
build_catalog(k, cache_dir=directory)
(directory / f"ready-{tag}").write_text("")
while not (directory / "go").exists():
    time.sleep(0.001)
rows = kind(k, cache_dir=directory)
print(hashlib.sha256(repr(rows).encode()).hexdigest())
"""


def _race_writers(directory, name, k):
    """Two processes that wait for each other, then read the k-th map with
    suffix name from directory at once; their hashes of the rows."""
    build_catalog(k, cache_dir=directory)
    src = Path(catalog.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    procs = [subprocess.Popen([sys.executable, "-c", _MAP_WRITER,
                               str(directory), str(i), name, str(k)],
                              env=env, stdout=subprocess.PIPE, text=True)
             for i in range(2)]
    try:
        deadline = time.monotonic() + 60
        while not all((directory / f"ready-{i}").exists() for i in range(2)):
            assert all(p.poll() is None for p in procs)
            assert time.monotonic() < deadline
            time.sleep(0.005)
        (directory / "go").write_text("")
        outs = [p.communicate(timeout=60)[0].strip() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.communicate()
    assert [p.returncode for p in procs] == [0, 0]
    return outs


# Every declared map shares one file mechanism.  Each case below also
# checks what reads the maps: the hom vectors, the flag reports and the
# basis counts come out the same.

MAPS = {kind.suffix: kind for kind in CLASS_MAPS}
RESULT_PROPERTIES = ("triangle-free", "chordal", "connected")
# C7 with one chord.  Its connected count reads the elimination orders of
# every size up to k; it stops at k = 6, as the flags do, since a basis
# count at k = 7 compiles hundreds of join shapes.
RESULT_HOST = HostGraph.from_edges(
    7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """INDSUB_CACHE_DIR at tmp_path, with no catalog, map or hom vector
    cached in the process when the test starts or ends."""
    def forget():
        catalog._catalog_cached.cache_clear()
        catalog._class_map_cached.cache_clear()
        hom_vector.cache_clear()

    forget()
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    yield tmp_path
    forget()


def _results(k):
    phis = [get_property(name) for name in RESULT_PROPERTIES]
    return ([hom_vector(phi, k) for phi in phis],
            [verify_flags(phi, min(k, MAX_FLAG_K)) for phi in phis],
            count_basis(get_property("connected"), min(k, 6), RESULT_HOST))


def _written(directory, name, k):
    """The results at k, which write every map they read into directory;
    then no map or hom vector stays cached.  Returns the map file of name
    at k, its text and the results."""
    want = _results(k)
    catalog._class_map_cached.cache_clear()
    hom_vector.cache_clear()
    path = directory / f"k{k}.{name}"
    return path, path.read_text(), want


def _edit_row(text, i, edit):
    lines = text.split("\n")
    lines[i + 1] = " ".join(map(str, edit([int(x) for x in
                                           lines[i + 1].split()])))
    return "\n".join(lines)


# k = 5: class 0 is the edgeless graph and class 33 is K5.  K5 has one
# partition into independent sets, so its quotient row is its own global
# id, 1 + 2 + 4 + 11 + 33 = 51, with sum 1; K5 minus any vertex is K4,
# class 10 of the 11 four-vertex classes, and K5 minus any edge is class
# 32.  The treewidth DP eliminates the edgeless graph's vertices from the
# last one down.  A map declared later gets the three corruptions every
# map gets.
MAP_CORRUPTIONS = {
    "edges": {
        "too few entries": lambda t: _edit_row(t, 33, lambda r: r[1:]),
    },
    "vertices": {
        "index out of range": lambda t: _edit_row(
            t, 33, lambda r: [11] + r[1:]),
        "target with the wrong edge count": lambda t: _edit_row(
            t, 0, lambda r: [1] + r[1:]),
        "too few entries": lambda t: _edit_row(t, 33, lambda r: r[1:]),
    },
    "quotients": {
        "own class missing": lambda t: _edit_row(t, 33, lambda r: []),
        "zero sum": lambda t: _edit_row(t, 0, lambda r: r[:1] + [0] + r[2:]),
        "id out of range": lambda t: _edit_row(t, 0, lambda r: [52] + r[1:]),
        "odd length": lambda t: _edit_row(t, 0, lambda r: r + [1]),
    },
    "orders": {
        "not a permutation": lambda t: _edit_row(
            t, 0, lambda r: [5] + r[1:]),
        "repeated vertex": lambda t: _edit_row(
            t, 33, lambda r: r[:1] * 2 + r[2:]),
        "too few entries": lambda t: _edit_row(t, 33, lambda r: r[1:]),
    },
}
for name in MAPS:
    corruptions = MAP_CORRUPTIONS.setdefault(name, {})
    corruptions["bad header"] = lambda t: "junk\n" + t.split("\n", 1)[1]
    corruptions["truncated"] = lambda t: t[:len(t) // 2]
    # The last digest in the header is that of k5.catalog.
    corruptions["digest of another catalog"] = lambda t: t.replace(
        t.split("\n", 1)[0][-64:], "0" * 64, 1)


@pytest.mark.parametrize("name, corruption", [
    (name, corruption) for name in sorted(MAP_CORRUPTIONS)
    for corruption in sorted(MAP_CORRUPTIONS[name])])
def test_corrupt_map_is_rebuilt_and_logged(name, corruption, cache_env,
                                           caplog):
    kind = MAPS[name]
    path, good, want = _written(cache_env, name, 5)
    if name == "edges":
        assert good.split("\n")[34] == " ".join(["32"] * 10)
    elif name == "vertices":
        assert _edit_row(good, 33, lambda r: r) == good
        assert good.split("\n")[34] == "10 10 10 10 10"
        assert good.split("\n")[1] == "0 0 0 0 0"
    elif name == "orders":
        assert _edit_row(good, 33, lambda r: r) == good
        assert good.split("\n")[1] == "4 3 2 1 0"
    else:
        assert good.split("\n")[34] == "51 1"
    path.write_text(MAP_CORRUPTIONS[name][corruption](good))
    with pytest.raises(FormatError):
        _read_file(kind, 5, cache_env)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert _results(5) == want
    assert any(f"rebuilding {kind.what} k=5" in r.getMessage()
               for r in caplog.records)
    assert path.read_text() == good


@pytest.mark.parametrize("name", [name for name in sorted(MAPS)
                                  if MAPS[name].lowest(5) < 5])
def test_stale_lower_catalog_is_caught(name, cache_env, caplog):
    # Rows index the catalogs below k too, so the header names their
    # digests: the same k4 classes in other bytes make the k = 5 map stale.
    kind = MAPS[name]
    path, good, want = _written(cache_env, name, 5)
    lower = cache_env / "k4.catalog"
    old = hashlib.sha256(lower.read_bytes()).hexdigest()
    lower.write_text(lower.read_text() + "\n")
    new = hashlib.sha256(lower.read_bytes()).hexdigest()
    assert old in good.split("\n", 1)[0]
    with pytest.raises(FormatError):
        _read_file(kind, 5, cache_env)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert _results(5) == want
    assert any(f"rebuilding {kind.what} k=5" in r.getMessage()
               for r in caplog.records)
    assert path.read_text() == good.replace(old, new)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_map_write_failure_is_logged(name, cache_env, caplog):
    kind = MAPS[name]
    path, _, want = _written(cache_env, name, 5)
    path.unlink()
    (path / "blocker").mkdir(parents=True)     # nothing can be written there
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert _results(5) == want
    assert any(f"could not write {kind.what}" in r.getMessage()
               for r in caplog.records)
    assert [p.name for p in cache_env.iterdir() if p.name.startswith(".")] \
        == []


@pytest.mark.parametrize("name", sorted(MAPS))
def test_map_needs_every_catalog_file_it_names(name, cache_env, caplog):
    # The k = 5 map names k4.catalog, or k5.catalog when it reads no
    # lower catalog: without it the map is computed and not written, and
    # nothing is logged.
    path, _, want = _written(cache_env, name, 5)
    path.unlink()
    (cache_env / f"k{max(MAPS[name].lowest(5), 4)}.catalog").unlink()
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert _results(5) == want
    assert not path.exists()
    assert caplog.records == []


@pytest.mark.parametrize("name, k", [("edges", 7), ("quotients", 7),
                                     ("vertices", 6), ("orders", 6)])
def test_concurrent_map_writers(name, k, cache_env):
    kind = MAPS[name]
    outs = _race_writers(cache_env, name, k)
    rows = _read_file(kind, k, cache_env)
    assert outs == [hashlib.sha256(repr(rows).encode()).hexdigest()] * 2
    assert sorted(p.name for p in cache_env.iterdir()
                  if not p.name.startswith(("ready-", "go"))) == \
        [f"k{m}.catalog" for m in range(1, k + 1)] + [f"k{k}.{name}"]
    assert rows == kind.compute(tuple(
        build_catalog(m) for m in range(kind.lowest(k), k + 1)))
    from_files = _results(k)
    for p in cache_env.glob("k*.[!c]*"):      # every map, no catalog
        p.unlink()
    catalog._class_map_cached.cache_clear()
    hom_vector.cache_clear()
    assert _results(k) == from_files


def test_building_or_loading_never_computes_the_invariant(tmp_path,
                                                          monkeypatch):
    def refuse(g):
        raise AssertionError("refinement invariant computed")

    monkeypatch.setattr(catalog, "refinement_invariant", refuse)
    build_catalog(5, cache_dir=tmp_path)
    for k in range(1, 6):
        cat = catalog._read_cache(k, tmp_path / f"k{k}.catalog")
        assert cat.class_count == CLASS_COUNTS[k]
        assert "_buckets" not in vars(cat)
    monkeypatch.undo()
    assert cat.index_of(SmallGraph.complete(5)) == cat.class_count - 1


def test_disk_cache_round_trip(tmp_path):
    from indsub.catalog import _read_cache
    first = build_catalog(5, cache_dir=tmp_path)
    assert (tmp_path / "k5.catalog").exists()
    again = _read_cache(5, tmp_path / "k5.catalog")
    assert again == first


def test_corrupt_cache_rejected(tmp_path):
    from indsub.catalog import _read_cache
    path = tmp_path / "k3.catalog"
    path.write_text("junk\n")
    with pytest.raises(FormatError):
        _read_cache(3, path)
    path.write_text("# indsub catalog v1 k=3 classes=4\nBw 6\n")
    with pytest.raises(FormatError):       # class count lies
        _read_cache(3, path)
    path.write_text("# indsub catalog v1 k=4 classes=1\nBw 6\n")
    with pytest.raises(FormatError):       # header k mismatch
        _read_cache(3, path)
    path.write_text("# indsub catalog v1 k=x=3 classes=1\nBw 6\n")
    with pytest.raises(FormatError):       # malformed header field
        _read_cache(3, path)
    path.write_text("# indsub catalog v1 k=3 classes=1\nBw 0\n")
    with pytest.raises(FormatError):       # automorphism count of zero
        _read_cache(3, path)
    path.write_bytes(b"# indsub catalog v1 k=3 classes=1\n\xff\xfe 6\n")
    with pytest.raises(FormatError):       # not text
        _read_cache(3, path)
    # The last line of the k = 3 file is K3 as "Bw 6"; each of these
    # lines differs from the writer's text for it.
    cat = build_catalog(3)
    good = (catalog.default_cache_dir() / "k3.catalog").read_text()
    assert good.endswith("\nBw 6\n")
    path.write_text(good)
    assert _read_cache(3, path) == cat
    for line in ("Bx 6",       # a padding bit set: decodes to K3 too
                 "Cw 6",       # the header character of 4 vertices
                 "B 6",        # a body too short
                 "Bw? 6",      # a body too long
                 "Bw  6"):     # two spaces before the automorphism count
        path.write_text(good.replace("\nBw 6\n", f"\n{line}\n"))
        with pytest.raises(FormatError):
            _read_cache(3, path)


def test_padding_bit_line_is_rebuilt_and_logged(tmp_path, caplog):
    # "Bx" decodes to K3 like "Bw" but is not the writer's text for it, and
    # the listing prints the stored text.
    build_catalog(3)
    good = (catalog.default_cache_dir() / "k3.catalog").read_text()
    path = tmp_path / "k3.catalog"
    path.write_text(good.replace("\nBw 6\n", "\nBx 6\n"))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert build_catalog(3, cache_dir=tmp_path).graph6[-1] == "Bw"
    assert any("rebuilding catalog k=3" in r.getMessage()
               for r in caplog.records)
    assert path.read_text() == good


def test_user_graph6_reader_stays_lenient():
    assert SmallGraph.from_graph6("G~~~~~") == SmallGraph.complete(8)
    assert SmallGraph.complete(8).to_graph6() == "G~~~~{"


def test_warm_load_builds_no_graph(tmp_path, monkeypatch):
    build_catalog(8)
    for k in range(1, 9):
        name = f"k{k}.catalog"
        (tmp_path / name).write_bytes(
            (catalog.default_cache_dir() / name).read_bytes())

    def refuse(*args):
        raise AssertionError("SmallGraph built or graph6 coded")

    monkeypatch.setattr(SmallGraph, "__post_init__", refuse)
    monkeypatch.setattr(SmallGraph, "from_graph6", refuse)
    monkeypatch.setattr(SmallGraph, "to_graph6", refuse)
    for k in range(1, 9):
        cat = build_catalog(k, cache_dir=tmp_path)
        assert cat.class_count == CLASS_COUNTS[k]
        assert cat._graphs == {}


def _check_stored_forms(cat):
    for i, (edges, text) in enumerate(zip(cat.edges, cat.graph6)):
        g = cat.graph(i)
        assert g.n == cat.k and edges == g.edges
        assert text == g.to_graph6()
        assert cat.graph(i) is g


def test_stored_forms_match_the_graphs(tmp_path):
    for k in range(1, 9):
        _check_stored_forms(build_catalog(k))
    build_catalog(8, cache_dir=tmp_path)     # cold: nothing read from disk
    for k in range(1, 9):
        _check_stored_forms(build_catalog(k, cache_dir=tmp_path))


def test_corrupt_cache_is_rebuilt_and_logged(tmp_path, caplog):
    from indsub.catalog import _read_cache
    path = tmp_path / "k3.catalog"
    path.write_text("junk\n")
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        cat = build_catalog(3, cache_dir=tmp_path)
    assert cat.class_count == CLASS_COUNTS[3]
    assert _read_cache(3, path) == cat
    assert any("rebuilding catalog k=3" in r.getMessage()
               for r in caplog.records)


def test_unreadable_cache_is_rebuilt_and_logged(tmp_path, caplog):
    # A directory where the catalog file belongs can be neither read nor
    # replaced: the catalog is rebuilt, and both failures are logged.
    (tmp_path / "k3.catalog").mkdir()
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        cat = build_catalog(3, cache_dir=tmp_path)
    assert cat == build_catalog(3)
    messages = [r.getMessage() for r in caplog.records]
    assert any("rebuilding catalog k=3" in m for m in messages)
    assert any("could not write catalog" in m and "k3.catalog" in m
               for m in messages)


def test_out_of_order_cache_is_rebuilt(tmp_path, caplog):
    # Truth tables and the deletion maps index classes by the builder's
    # order, so a file with the right classes in another order is corrupt.
    from indsub.catalog import _read_cache, _write_cache
    cat = build_catalog(4)
    path = tmp_path / "k4.catalog"
    _write_cache(cat, path)
    head, *body = path.read_text().splitlines()
    i = next(i for i, (a, b) in enumerate(zip(cat.edges, cat.edges[1:]))
             if a.bit_count() == b.bit_count())
    swapped = body[:i] + [body[i + 1], body[i]] + body[i + 2:]
    for lines in (swapped, body[::-1]):
        path.write_text("\n".join([head, *lines]) + "\n")
        with pytest.raises(FormatError):
            _read_cache(4, path)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert build_catalog(4, cache_dir=tmp_path) == cat
    assert any("rebuilding catalog k=4" in r.getMessage()
               for r in caplog.records)
    assert _read_cache(4, path) == cat


def test_cache_write_failure_is_logged(tmp_path, caplog):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        cat = build_catalog(2, cache_dir=blocker)
    assert cat.class_count == CLASS_COUNTS[2]
    assert sum("could not write catalog" in r.getMessage()
               for r in caplog.records) == 2      # k = 2 and its parent


def test_concurrent_cache_writers(tmp_path):
    from indsub.catalog import _read_cache, _write_cache
    cat = build_catalog(5)
    path = tmp_path / "k5.catalog"
    threads = (os.cpu_count() or 1) + 2
    barrier = threading.Barrier(threads)
    deadline = time.monotonic() + 2.0
    errors = []

    def writer():
        try:
            barrier.wait(timeout=30)
            for _ in range(25):
                _write_cache(cat, path)
                assert _read_cache(5, path) == cat
                if time.monotonic() > deadline:
                    break
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    pool = [threading.Thread(target=writer) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert errors == []
    assert _read_cache(5, path) == cat
    assert [p.name for p in tmp_path.iterdir()] == ["k5.catalog"]


def test_parent_catalog_uses_the_given_cache_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(env_dir))
    build_catalog(7, cache_dir=tmp_path / "explicit")
    assert list(env_dir.iterdir()) == []
    assert sorted(p.name for p in (tmp_path / "explicit").iterdir()) == \
        [f"k{k}.catalog" for k in range(1, 8)]


def test_build_catalogs_script_on_cold_cache(tmp_path, capsys):
    script = Path(__file__).parent.parent / "scripts" / "build_catalogs.py"
    spec = importlib.util.spec_from_file_location("build_catalogs", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--kmax", "4", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "k=4: 11 classes" in out and "k=4: edge-deletion map" in out
    assert "k=4: quotient rows" in out and "k=4: vertex-deletion map" in out
    assert "k=4: elimination orders" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"k{k}.{kind}" for k in range(1, 5)
         for kind in ("catalog", "edges", "quotients", "orders")]
        + [f"k{k}.vertices" for k in range(2, 5)])
    for kind in CLASS_MAPS:
        for k in range(kind.ks[0], 5):
            assert _read_file(kind, k, tmp_path) == kind.compute(tuple(
                build_catalog(m) for m in range(kind.lowest(k), k + 1)))
    for k in range(1, 5):
        assert _read_file(edge_deletions, k, tmp_path) == \
            reference_edge_deletions(k)
    for k in range(2, 5):
        assert _read_file(vertex_deletions, k, tmp_path) == \
            reference_vertex_deletions(k)


def test_cold_build_is_byte_identical(tmp_path):
    # Catalog order and truth-table indexing depend on the canonical form.
    # The digest is that of the files k = 1..8 built without the vertex-key
    # test, canonicalising one neighbor mask per orbit of every parent;
    # their k <= 7 files are those built by extending every neighbor mask
    # of every parent with the reference canoniser.
    build_catalog(8, cache_dir=tmp_path)
    assert len(canon._cache) <= canon.CACHE_CAP
    # Building a catalog writes no edge-deletion map.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [f"k{k}.catalog" for k in range(1, 9)]
    digest = hashlib.sha256()
    for k in range(1, 9):
        digest.update((tmp_path / f"k{k}.catalog").read_bytes())
    assert digest.hexdigest() == \
        "1a55f93e16d8d82140a45acc68a44adfbc3e4feeecd5232f6db2318b9af2795a"


@pytest.mark.parametrize("k", range(1, 8))
def test_builder_matches_unpruned_oracle(k, tmp_path):
    assert catalog._build_classes(k, str(tmp_path)) == \
        unpruned_catalog_classes(k)


@settings(max_examples=200)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.integers(0, (1 << pair_count(n)) - 1), st.permutations(range(n)))))
def test_vertex_key_is_isomorphism_invariant(edges_and_perm):
    edges, perm = edges_and_perm
    g = SmallGraph(len(perm), edges)
    relabeled = g.relabel(perm)
    for v in range(g.n):
        assert vertex_key(g, v) == vertex_key(relabeled, perm[v])


def _check_key_maximal_masks(parent: SmallGraph):
    """_key_maximal_masks keeps exactly the masks whose new vertex has the
    largest vertex_key in the extension."""
    m = parent.n
    want = []
    for mask in range(1 << m):
        joined = [(u, m) for u in range(m) if mask >> u & 1]
        ext = SmallGraph.from_edges(m + 1, parent.edge_pairs() + joined)
        keys = [vertex_key(ext, v) for v in range(m + 1)]
        if keys[m] == max(keys):
            want.append(mask)
    assert list(catalog._key_maximal_masks(parent.adj_rows(),
                                           range(1 << m))) == want


@pytest.mark.parametrize("m", range(7))
def test_key_maximal_masks_match_the_vertex_key(m):
    for parent in (build_catalog(m).graphs() if m else [SmallGraph(0)]):
        _check_key_maximal_masks(parent)


def test_key_maximal_masks_on_sampled_seven_vertex_parents():
    rng = random.Random(707)
    for parent in rng.sample(list(build_catalog(7).graphs()), 40):
        _check_key_maximal_masks(parent)


def test_cold_build_canonicalises_few_extensions(tmp_path, monkeypatch):
    calls = 0

    def counting(g):
        nonlocal calls
        calls += 1
        return canon._canonical_data(g)

    monkeypatch.setattr(catalog, "_canonical_data", counting)
    build_catalog(7, cache_dir=tmp_path)
    classes = sum(CLASS_COUNTS[k] for k in range(1, 8))
    assert classes == 1252
    assert calls < 2 * classes


@pytest.mark.parametrize("k", range(1, 6))
def test_orbit_representatives_one_per_orbit(k):
    from indsub.canon import automorphism_generators
    from indsub.catalog import _orbit_representatives
    for g in build_catalog(k).graphs():
        auts = [p for p in itertools.permutations(range(k))
                if g.relabel(p) == g]
        orbits = {min(sum(1 << p[v] for v in range(k) if mask >> v & 1)
                      for p in auts)
                  for mask in range(1 << k)}
        assert _orbit_representatives(k, automorphism_generators(g)) == \
            sorted(orbits)


@pytest.mark.parametrize("k", [7, 8])
def test_large_catalog_self_consistency(k):
    cat = build_catalog(k)
    assert cat.class_count == CLASS_COUNTS[k]
    assert cat.labeled_total == 1 << pair_count(k)
    assert len({canon_key(g) for g in cat.graphs()}) == cat.class_count


def brute_supersets_by_class(h: SmallGraph, ell: int):
    """Enumerate every edge superset of h with ell edges directly."""
    import itertools
    d = pair_count(h.n)
    free = [b for b in range(d) if not h.edges >> b & 1]
    need = ell - h.edge_count
    out = {}
    if need < 0:
        return out
    for extra in itertools.combinations(free, need):
        mask = h.edges
        for b in extra:
            mask |= 1 << b
        key = canon_key(SmallGraph(h.n, mask))
        out[key] = out.get(key, 0) + 1
    return out


def test_extension_counts_match_direct_enumeration():
    import random

    from oracles import random_small_graph
    rng = random.Random(21)
    for _ in range(12):
        h = random_small_graph(rng, 4)
        for ell in range(pair_count(4) + 1):
            assert extension_counts_by_class(h, ell) == \
                brute_supersets_by_class(h, ell)


def test_extension_count_binomial_identity():
    for k in range(1, 6):
        d = pair_count(k)
        for g in build_catalog(k).graphs():
            e = g.edge_count
            for ell in range(d + 1):
                expected = comb(d - e, ell - e) if ell >= e else 0
                assert extension_count(g, ell) == expected


def test_extension_examples():
    assert extension_count(SmallGraph.empty(3), 2) == 3
    assert extension_count(SmallGraph.complete(3), 3) == 1
    assert extension_count(SmallGraph.complete(3), 2) == 0
