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

from indsub import canon, catalog, counting, homcount
from indsub.canon import _canonical_data, canon_key, refinement_invariant
from indsub.catalog import (
    CLASS_MAPS,
    MAX_CATALOG_K,
    MAX_FLAG_K,
    MAX_HOM_VECTOR_K,
    build_catalog,
    compute_edge_deletions,
    edge_deletions,
    vertex_deletions,
)
from indsub.counting import count_basis
from indsub.errors import FormatError
from indsub.graphs import HostGraph, SmallGraph, pair_count
from indsub.hombasis import hom_vector
from indsub.properties import (
    class_values,
    get_property,
    truth_table_property,
    verify_flags,
)
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
def test_catalog_matches_orbit_oracle(k, tmp_path, monkeypatch):
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    cat = build_catalog(k)
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


def test_catalog_entry_order_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path / "a"))
    cat1 = build_catalog(5)
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path / "b"))
    cat2 = build_catalog(5)
    assert list(cat1.graphs()) == list(cat2.graphs())
    edge_counts = [g.edge_count for g in cat1.graphs()]
    assert edge_counts == sorted(edge_counts)


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_catalog(0)
    with pytest.raises(ValueError):
        build_catalog(MAX_CATALOG_K + 1)


def _refuse(*args, **kwargs):
    raise AssertionError("a refused function was called")


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


def test_index_of_names_a_representative_by_its_bitset(monkeypatch):
    cats = [build_catalog(k) for k in range(1, MAX_CATALOG_K + 1)]
    rng = random.Random(707)
    bits = "".join(rng.choice("01") for _ in range(CLASS_COUNTS[7]))
    phi = truth_table_property({7: bits})
    monkeypatch.setattr(catalog, "refinement_invariant", _refuse)
    monkeypatch.setattr(catalog, "canon_key", _refuse)
    for cat in cats:
        assert [cat.index_of(g) for g in cat.graphs()] == \
            list(range(cat.class_count))
    assert class_values(phi, 7) == tuple(b == "1" for b in bits)


def test_index_of_raises_canon_key_error_outside_the_catalog():
    cat = build_catalog(4)
    outside = [SmallGraph(0), SmallGraph(3, 0b11), SmallGraph(5),
               SmallGraph.cycle(5), SmallGraph.complete(3)]
    for g in outside:
        with pytest.raises(KeyError) as want:
            _canon_index(cat, g)
        with pytest.raises(KeyError) as got:
            cat.index_of(g)
        assert got.value.args == want.value.args == (canon_key(g),)


def test_catalog_and_map_memos_stay_bounded(tmp_path, monkeypatch):
    # A process that visits many cache directories keeps at most one
    # directory's catalogs, maps and plan tables, and one directory's
    # whole working set fits: loading it again misses nothing.
    memos = (catalog._catalog_cached, catalog._class_map_cached,
             homcount.load_plans)
    sizes = (MAX_CATALOG_K, 3 * MAX_HOM_VECTOR_K, MAX_HOM_VECTOR_K)
    assert [memo.cache_info().maxsize for memo in memos] == list(sizes)
    assert sizes[1] >= sum(len(kind.ks) for kind in CLASS_MAPS)

    def load(k_max, directory):
        monkeypatch.setenv("INDSUB_CACHE_DIR", str(directory))
        for k in range(1, k_max + 1):
            build_catalog(k)
        for kind in CLASS_MAPS:
            for k in kind.ks:
                if k <= k_max:
                    kind(k)
        # the plan tables count_basis reads, one per vertex count
        for m in range(1, min(k_max, MAX_HOM_VECTOR_K) + 1):
            homcount.load_plans(catalog.default_cache_dir(), m)

    session = catalog.default_cache_dir()
    for i in range(20):
        load(3, tmp_path / str(i))
        assert all(memo.cache_info().currsize <= size
                   for memo, size in zip(memos, sizes))
    load(MAX_CATALOG_K, session)
    misses = [memo.cache_info().misses for memo in memos]
    load(MAX_CATALOG_K, session)
    assert [memo.cache_info().misses for memo in memos] == misses


def test_deletion_maps_match_canon_only_reference(tmp_path, monkeypatch):
    # The deletion maps are computed and written, then read back from their
    # files by a process state with no cached catalog or map.
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    for k in range(1, 8):
        edge_deletions(k)
    for k in range(2, MAX_FLAG_K + 1):
        vertex_deletions(k)
    catalog._class_map_cached.cache_clear()
    catalog._catalog_cached.cache_clear()
    monkeypatch.setattr(catalog, "compute_edge_deletions", _refuse)
    monkeypatch.setattr(catalog, "compute_vertex_deletions", _refuse)
    for k in range(1, 8):
        assert edge_deletions(k) == reference_edge_deletions(k)
    for k in range(2, MAX_FLAG_K + 1):
        assert vertex_deletions(k) == reference_vertex_deletions(k)


def test_maps_reject_k_outside_their_range():
    # edge_deletions covers the k its readers ask for, 1..7, though the
    # catalogs go up to 8.
    assert [(kind.suffix, kind.ks[0], kind.ks[-1]) for kind in CLASS_MAPS] \
        == [("edges", 1, 7), ("vertices", 2, MAX_FLAG_K), ("quotients", 1, 7)]
    for kind in CLASS_MAPS:
        for k in (kind.ks[0] - 1, kind.ks[-1] + 1):
            with pytest.raises(ValueError, match=f"{kind.what} cover"):
                kind(k)


def test_edge_deletions_canonicalise_few_graphs(monkeypatch):
    cat = build_catalog(7)
    calls = 0

    def counting(n, rows):
        nonlocal calls
        calls += 1
        return _canonical_data(n, rows)

    monkeypatch.setattr(canon, "_canonical_data", counting)
    compute_edge_deletions(cat)
    assert calls < 1000


def _edges_file(k=5):
    """The k-th edge-deletion map's file in a fresh cache directory, which
    then holds catalogs 1..k too, with no map cached in the process."""
    edge_deletions(k)
    catalog._class_map_cached.cache_clear()
    return catalog.default_cache_dir() / f"k{k}.edges"


def _read_file(kind, k):
    """kind's map for k read from its file in the cache directory, or
    FormatError."""
    directory = catalog.default_cache_dir()
    cats = tuple(build_catalog(m) for m in range(kind.lowest(k), k + 1))
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
                                                         tmp_path, caplog,
                                                         monkeypatch):
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    path = _edges_file()
    good = path.read_text()
    assert _replace_row(good, 33, " ".join(["32"] * 10)) == good
    assert _replace_row(good, 2, "1 1") == good
    path.write_text(EDGES_CORRUPTIONS[corruption](good, tmp_path))
    with pytest.raises(FormatError):
        _read_file(edge_deletions, 5)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        rows = edge_deletions(5)
    assert rows == reference_edge_deletions(5)
    assert any(f"rebuilding {edge_deletions.what} k=5" in r.getMessage()
               for r in caplog.records)
    assert path.read_text() == good


def test_edge_deletion_map_needs_its_catalog_file(tmp_path, caplog,
                                                   monkeypatch):
    # The catalogs' own writes fail: the map is computed, and not written,
    # since no file exists for its header to name.  A lone missing catalog
    # file is checked for every map below.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(blocker))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert edge_deletions(3) == reference_edge_deletions(3)
    assert not any("edge-deletion map" in r.getMessage()
                   for r in caplog.records)


_MAP_WRITER = """
import hashlib, sys, time
from indsub.catalog import CLASS_MAPS, build_catalog, default_cache_dir
directory = default_cache_dir()
tag, name, k = sys.argv[1], sys.argv[2], int(sys.argv[3])
kind, = (kind for kind in CLASS_MAPS if kind.suffix == name)
build_catalog(k)
(directory / f"ready-{tag}").write_text("")
while not (directory / "go").exists():
    time.sleep(0.001)
rows = kind(k)
print(hashlib.sha256(repr(rows).encode()).hexdigest())
"""


def _race_writers(directory, name, k):
    """Two processes that wait for each other, then read the k-th map with
    suffix name from directory, the cache directory, at once; their hashes
    of the rows."""
    build_catalog(k)
    src = Path(catalog.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src),
               INDSUB_CACHE_DIR=str(directory))
    procs = [subprocess.Popen([sys.executable, "-c", _MAP_WRITER,
                               str(i), name, str(k)],
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
# C7 with one chord.  Its connected count plans classes of every size up
# to k; it stops at k = 6, as the flags do, since a basis count at k = 7
# compiles hundreds of join shapes.
RESULT_HOST = HostGraph.from_edges(
    7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """INDSUB_CACHE_DIR at tmp_path, with no catalog, map, hom vector or
    anything count_basis keeps cached in the process when the test starts
    or ends."""
    def forget():
        catalog._catalog_cached.cache_clear()
        _forget_maps()

    forget()
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    yield tmp_path
    forget()


def _forget_maps():
    """Drop the maps and hom vectors cached in the process, and the hom
    counts and plans count_basis keeps, and the plan tables read from plan
    files, so the next count_basis plans its classes again unless a plan
    file holds them."""
    catalog._class_map_cached.cache_clear()
    hom_vector.cache_clear()
    counting._host_homs.cache_clear()
    homcount._validated_plan.cache_clear()
    homcount.load_plans.cache_clear()


def _results(k):
    phis = [get_property(name) for name in RESULT_PROPERTIES]
    return ([hom_vector(phi, k) for phi in phis],
            [verify_flags(phi, min(k, MAX_FLAG_K)) for phi in phis],
            count_basis(get_property("connected"), min(k, 6), RESULT_HOST))


def _written(directory, name, k):
    """The results at k, which write every map they read into directory;
    then nothing _forget_maps drops stays cached, and the plan files the
    count wrote are removed, so the next count plans its classes again.
    Returns the map file of name at k, its text and the results."""
    want = _results(k)
    _forget_maps()
    for plans in directory.glob(f"k*.{homcount.PLAN_SUFFIX}"):
        plans.unlink()
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
# 32.  Each corruption comes with the words of the failed rule
# that the logged rebuild line must hold.  A map declared later gets the
# three corruptions every map gets.
MAP_CORRUPTIONS = {
    "edges": {
        "too few entries": (lambda t: _edit_row(t, 33, lambda r: r[1:]),
                            "an edge row has e(C) entries"),
    },
    "vertices": {
        "index out of range": (
            lambda t: _edit_row(t, 33, lambda r: [11] + r[1:]),
            "a class with e(C) - deg(v) edges"),
        "target with the wrong edge count": (
            lambda t: _edit_row(t, 0, lambda r: [1] + r[1:]),
            "a class with e(C) - deg(v) edges"),
        "too few entries": (lambda t: _edit_row(t, 33, lambda r: r[1:]),
                            "a vertex row has k entries"),
    },
    "quotients": {
        "own class missing": (lambda t: _edit_row(t, 33, lambda r: []),
                              "ends with its own class and sum 1"),
        "zero sum": (lambda t: _edit_row(t, 0, lambda r: r[:1] + [0] + r[2:]),
                     "sums are not zero"),
        "id out of range": (lambda t: _edit_row(t, 0, lambda r: [52] + r[1:]),
                            "ids are classes on at most k vertices"),
        "odd length": (lambda t: _edit_row(t, 0, lambda r: r + [1]),
                       "a quotient row has even length"),
    },
}
for name in MAPS:
    corruptions = MAP_CORRUPTIONS.setdefault(name, {})
    corruptions["bad header"] = (
        lambda t: "junk\n" + t.split("\n", 1)[1], "header 'junk' is not")
    corruptions["truncated"] = (lambda t: t[:len(t) // 2], "not 34 rows")
    # The last digest in the header is that of k5.catalog.
    corruptions["digest of another catalog"] = (
        lambda t: t.replace(t.split("\n", 1)[0][-64:], "0" * 64, 1),
        "' is not '# indsub ")


@pytest.mark.parametrize("name, corruption", [
    (name, corruption) for name in sorted(MAP_CORRUPTIONS)
    for corruption in sorted(MAP_CORRUPTIONS[name])])
def test_corrupt_map_is_rebuilt_and_logged(name, corruption, cache_env,
                                           caplog):
    kind = MAPS[name]
    corrupt, rule = MAP_CORRUPTIONS[name][corruption]
    path, good, want = _written(cache_env, name, 5)
    if name == "edges":
        assert good.split("\n")[34] == " ".join(["32"] * 10)
    elif name == "vertices":
        assert _edit_row(good, 33, lambda r: r) == good
        assert good.split("\n")[34] == "10 10 10 10 10"
        assert good.split("\n")[1] == "0 0 0 0 0"
    else:
        assert good.split("\n")[34] == "51 1"
    path.write_text(corrupt(good))
    with pytest.raises(FormatError):
        _read_file(kind, 5)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert _results(5) == want
    assert any(f"rebuilding {kind.what} k=5: {path}: " in r.getMessage()
               and rule in r.getMessage() for r in caplog.records)
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
        _read_file(kind, 5)
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
                                     ("vertices", 6)])
def test_concurrent_map_writers(name, k, cache_env):
    kind = MAPS[name]
    outs = _race_writers(cache_env, name, k)
    rows = _read_file(kind, k)
    assert outs == [hashlib.sha256(repr(rows).encode()).hexdigest()] * 2
    assert sorted(p.name for p in cache_env.iterdir()
                  if not p.name.startswith(("ready-", "go"))) == \
        [f"k{m}.catalog" for m in range(1, k + 1)] + [f"k{k}.{name}"]
    assert rows == kind.compute(tuple(
        build_catalog(m) for m in range(kind.lowest(k), k + 1)))
    from_files = _results(k)
    for p in cache_env.glob("k*.[!c]*"):      # every map, no catalog
        p.unlink()
    _forget_maps()
    assert _results(k) == from_files


def test_building_or_loading_never_computes_the_invariant(tmp_path,
                                                          monkeypatch):
    def refuse(g):
        raise AssertionError("refinement invariant computed")

    monkeypatch.setattr(catalog, "refinement_invariant", refuse)
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    build_catalog(5)
    for k in range(1, 6):
        cat = catalog._read_cache(k, tmp_path / f"k{k}.catalog")
        assert cat.class_count == CLASS_COUNTS[k]
        assert "_buckets" not in vars(cat)
    monkeypatch.undo()
    assert cat.index_of(SmallGraph.complete(5)) == cat.class_count - 1


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    from indsub.catalog import _read_cache
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    first = build_catalog(5)
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


def test_padding_bit_line_is_rebuilt_and_logged(tmp_path, caplog,
                                                monkeypatch):
    # "Bx" decodes to K3 like "Bw" but is not the writer's text for it, and
    # the listing prints the stored text.
    build_catalog(3)
    good = (catalog.default_cache_dir() / "k3.catalog").read_text()
    path = tmp_path / "k3.catalog"
    path.write_text(good.replace("\nBw 6\n", "\nBx 6\n"))
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert build_catalog(3).graph6[-1] == "Bw"
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

    monkeypatch.setattr(SmallGraph, "__new__", refuse)
    monkeypatch.setattr(SmallGraph, "from_graph6", refuse)
    monkeypatch.setattr(SmallGraph, "to_graph6", refuse)
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    for k in range(1, 9):
        cat = build_catalog(k)
        assert cat.class_count == CLASS_COUNTS[k]
        assert cat._graphs == {}


def _check_stored_forms(cat):
    for i, (edges, text) in enumerate(zip(cat.edges, cat.graph6)):
        g = cat.graph(i)
        assert g.n == cat.k and edges == g.edges
        assert text == g.to_graph6()
        assert cat.graph(i) is g


def test_stored_forms_match_the_graphs(tmp_path, monkeypatch):
    for k in range(1, 9):
        _check_stored_forms(build_catalog(k))
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    build_catalog(8)     # cold: nothing read from disk
    for k in range(1, 9):
        _check_stored_forms(build_catalog(k))


def test_corrupt_cache_is_rebuilt_and_logged(tmp_path, caplog, monkeypatch):
    from indsub.catalog import _read_cache
    path = tmp_path / "k3.catalog"
    path.write_text("junk\n")
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        cat = build_catalog(3)
    assert cat.class_count == CLASS_COUNTS[3]
    assert _read_cache(3, path) == cat
    assert any("rebuilding catalog k=3" in r.getMessage()
               for r in caplog.records)


def test_unreadable_cache_is_rebuilt_and_logged(tmp_path, caplog,
                                                monkeypatch):
    # A directory where the catalog file belongs can be neither read nor
    # replaced: the catalog is rebuilt, and both failures are logged.
    want = build_catalog(3)
    (tmp_path / "k3.catalog").mkdir()
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert build_catalog(3) == want
    messages = [r.getMessage() for r in caplog.records]
    assert any("rebuilding catalog k=3" in m for m in messages)
    assert any("could not write catalog" in m and "k3.catalog" in m
               for m in messages)


def test_out_of_order_cache_is_rebuilt(tmp_path, caplog, monkeypatch):
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
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert build_catalog(4) == cat
    assert any("rebuilding catalog k=4" in r.getMessage()
               for r in caplog.records)
    assert _read_cache(4, path) == cat


def test_cache_write_failure_is_logged(tmp_path, caplog, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(blocker))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        cat = build_catalog(2)
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


def test_switching_the_cache_dir_keeps_each_directory_whole(cache_env,
                                                           monkeypatch):
    # The directory is INDSUB_CACHE_DIR at each call: a count after the
    # variable changes finds none of the catalogs and maps held for the
    # old directory, so the new one gets every file the count reads,
    # each whole and loadable.
    connected = get_property("connected")
    for k, name in ((4, "a"), (5, "b")):
        monkeypatch.setenv("INDSUB_CACHE_DIR", str(cache_env / name))
        assert count_basis(connected, k, RESULT_HOST) == \
            counting.count_brute(connected, k, RESULT_HOST)
        names = {p.name for p in (cache_env / name).iterdir()}
        assert {f"k{m}.catalog" for m in range(1, k + 1)} | \
            {f"k{k}.{kind}" for kind in ("edges", "quotients")} \
            <= names
        for m in range(1, k + 1):
            assert catalog._read_cache(
                m, cache_env / name / f"k{m}.catalog") == build_catalog(m)
        for kind in (edge_deletions, MAPS["quotients"]):
            assert _read_file(kind, k) == kind(k)


def test_collecting_the_tests_writes_no_user_cache(tmp_path):
    """test_homcount builds catalogs at import, that is while pytest
    collects it: with no INDSUB_CACHE_DIR set, they must still land in the
    session's own directory, not under HOME."""
    tests = Path(__file__).parent
    env = {name: value for name, value in os.environ.items()
           if name != "INDSUB_CACHE_DIR"}
    env["HOME"] = str(tmp_path)
    env["PYTHONPATH"] = str(Path(catalog.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                    "-p", "no:cacheprovider", str(tests / "test_homcount.py")],
                   cwd=tests.parent, env=env, capture_output=True,
                   timeout=300, check=True)
    assert not (tmp_path / ".cache" / "indsub").exists()


def test_build_catalogs_script_on_cold_cache(tmp_path, capsys, monkeypatch):
    script = Path(__file__).parent.parent / "scripts" / "build_catalogs.py"
    spec = importlib.util.spec_from_file_location("build_catalogs", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # --cache-dir sets INDSUB_CACHE_DIR in this process; setting it through
    # monkeypatch first puts the session's value back after the test.
    monkeypatch.setenv("INDSUB_CACHE_DIR", os.environ["INDSUB_CACHE_DIR"])
    assert module.main(["--kmax", "4", "--cache-dir", str(tmp_path)]) == 0
    assert os.environ["INDSUB_CACHE_DIR"] == str(tmp_path)
    out = capsys.readouterr().out
    assert "k=4: 11 classes" in out and "k=4: edge-deletion map" in out
    assert "k=4: quotient rows" in out and "k=4: vertex-deletion map" in out
    assert "elimination orders" not in out
    assert out.splitlines()[-1].startswith(
        f"k4.{homcount.PLAN_SUFFIX}: 11 class plans [")
    plan_files = [f"k{k}.{homcount.PLAN_SUFFIX}" for k in range(1, 5)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"k{k}.{kind}" for k in range(1, 5)
         for kind in ("catalog", "edges", "quotients")]
        + [f"k{k}.vertices" for k in range(2, 5)] + plan_files)
    # the plan files hold every class it planned: a new process plans none
    homcount._compiled.cache_clear()
    homcount._validated_plan.cache_clear()
    homcount.load_plans.cache_clear()
    monkeypatch.setattr(homcount, "compile", None, raising=False)
    monkeypatch.setattr(homcount, "_plan", None)
    monkeypatch.setattr(homcount, "tree_decomposition", None)
    written = {name: os.stat(tmp_path / name).st_ino for name in plan_files}
    for k in range(1, 5):
        cat = build_catalog(k)
        assert len(counting.class_plans(cat.graphs())) == cat.class_count
        assert homcount.load_plans(tmp_path, k).keys() == set(cat.edges)
    assert written == {name: os.stat(tmp_path / name).st_ino
                       for name in plan_files}
    for kind in CLASS_MAPS:
        for k in range(kind.ks[0], 5):
            assert _read_file(kind, k) == kind.compute(tuple(
                build_catalog(m) for m in range(kind.lowest(k), k + 1)))
    for k in range(1, 5):
        assert _read_file(edge_deletions, k) == \
            reference_edge_deletions(k)
    for k in range(2, 5):
        assert _read_file(vertex_deletions, k) == \
            reference_vertex_deletions(k)


# The sha256 of every cache file built cold.  The catalogs are those built
# without the vertex-key test, canonicalising one neighbor mask per orbit
# of every parent; their k <= 7 files are those built by extending every
# neighbor mask of every parent with the reference canoniser.  The maps
# were built from those catalogs before the canoniser used twins.
COLD_CACHE_SHA256 = {
    "k1.catalog":
        "f6ab303f5bdf26a18ea043b1696ed63192f31f4953c0e10b8caedf56a45c528b",
    "k2.catalog":
        "17b0817ef9b4b2bfa2b072c6e99af295724658b1a54b0c8ebf7e1214605f4ce0",
    "k3.catalog":
        "a5be7316ca2d8a725a6a00692e94c965488a3bfbcebf00c53aaa68fd71d3f47b",
    "k4.catalog":
        "abb6125d9e5d2553a32006213786838544580a7062312935b26507b0459ec260",
    "k5.catalog":
        "220e2578e06445fc9da20df310ea0d660dea6c6ad0c4e1a82d016150a5f9bb46",
    "k6.catalog":
        "ffe2347ae7a58f2891a580e8c519e4a24fd55805f0d1e4007e61736eea992954",
    "k7.catalog":
        "790cd9409f7fcd3dc8f4ab121da208806a75a4f74df2e86d1096256c98873a3a",
    "k8.catalog":
        "f28ab610fab6c3130a52beb223b39e32024a8ad727bba079522624cc0d974194",
    "k1.edges":
        "ff9d28d20664853eee5a1324334c47cab9122c29bb33f9aa5dd52e37e2912f03",
    "k2.edges":
        "9be55b92dde6f746954e3b002ce84abdcf6860e46c185fe7834c5f5481c75c84",
    "k3.edges":
        "56c3c2270dce593999414db6d207d75e64318a928e19534a517b717f7d1d1b78",
    "k4.edges":
        "6a1cfe3385b29f01e13beb09a6117efdd0ffe754c625fb9920b58f80c3c1933f",
    "k5.edges":
        "eba72c061009377af0e92075c40b471e757f12fac2c0ad83a6334bc4250bad43",
    "k6.edges":
        "e412491fa11854f1b1146a98b4dd9605b6ab2f4632fab81aebb261fd4758f7b2",
    "k7.edges":
        "ef67a994fb1a3f5471943cd9887c103bf08dbcb58937522b886936ebc57efef4",
    "k1.quotients":
        "7b25d16ce0e1c98cfc9af505831b4d606a3d40e2eef7d10269742d7d8f585ea8",
    "k2.quotients":
        "0316466a1541aa11d9c1142f22e6d90819c6912a4c01ced72cbd2e660dd9dfcd",
    "k3.quotients":
        "98fe848a480f97e20cb9119e1757b8afd67d60fd77faec7f60b785be063dd158",
    "k4.quotients":
        "7878f71bd802ef84b1cd3a38cb9dd5b2873534ed59eb4703918bc20c4231532c",
    "k5.quotients":
        "1065073c6d3de96558487313765fd2b9ff61a886cd433b5609229b3dc81629a5",
    "k6.quotients":
        "c6311650c5d6813489d9180f67e8afb501b6a42c9cd33e2cd3e163c8aad7109f",
    "k7.quotients":
        "7869c956323fb8f74c3e84c803d43704fecf08b9a651cdd264da89c4444c1ffb",
    "k2.vertices":
        "24387c9656a35c86757692bce34f136037f03a1c22b3cdec116e86105dc9c9c3",
    "k3.vertices":
        "1402f91138d1fa8e78ca528a7b7febc3841f9f3d727346369e915084a52457d0",
    "k4.vertices":
        "3e12286c9c43632ae4a21a005ae89bad65d27166e91d439ab292897497a9b0bb",
    "k5.vertices":
        "dc1ac4dfd1d90932ab73a47a11148393790521d04963e5b840344f0b8851ab16",
    "k6.vertices":
        "782148b9e0b9f79b86bd8c262df5415e2f7bbc2769a2533e25ceef3a7097de65",
}


def test_cold_build_is_byte_identical(tmp_path, monkeypatch):
    # Catalog order and truth-table indexing depend on the canonical form,
    # and every map row reads catalog indices.
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    build_catalog(8)
    # Building a catalog writes no edge-deletion map.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [f"k{k}.catalog" for k in range(1, 9)]
    for kind in CLASS_MAPS:
        for k in kind.ks:
            kind(k)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == COLD_CACHE_SHA256


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
    """_key_maximal_masks with no generators keeps exactly the masks whose
    new vertex has the largest vertex_key in the extension."""
    m = parent.n
    want = []
    for mask in range(1 << m):
        joined = [(u, m) for u in range(m) if mask >> u & 1]
        ext = SmallGraph.from_edges(m + 1, parent.edge_pairs() + joined)
        keys = [vertex_key(ext, v) for v in range(m + 1)]
        if keys[m] == max(keys):
            want.append(mask)
    assert list(catalog._key_maximal_masks(parent.adj_rows(), ())) == want


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

    def counting(n, rows):
        nonlocal calls
        calls += 1
        return _canonical_data(n, rows)

    monkeypatch.setattr(catalog, "_canonical_data", counting)
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    build_catalog(7)
    classes = sum(CLASS_COUNTS[k] for k in range(1, 8))
    assert classes == 1252
    assert calls < 2 * classes


def _check_orbit_representatives(g: SmallGraph) -> None:
    from indsub.canon import automorphism_generators
    from indsub.catalog import _orbit_representatives
    k = g.n
    auts = [p for p in itertools.permutations(range(k))
            if g.relabel(p) == g]
    orbits = {min(sum(1 << p[v] for v in range(k) if mask >> v & 1)
                  for p in auts)
              for mask in range(1 << k)}
    gens = automorphism_generators(g)
    assert _orbit_representatives(range(1 << k), gens) == sorted(orbits), g
    # The key-maximal masks make up whole orbits; with the generators the
    # least mask of each is kept.
    kept = list(catalog._key_maximal_masks(g.adj_rows(), ()))
    assert list(catalog._key_maximal_masks(g.adj_rows(), gens)) == \
        [m for m in sorted(orbits) if m in kept], g


@pytest.mark.parametrize("k", range(1, 7))
def test_orbit_representatives_one_per_orbit(k):
    for g in build_catalog(k).graphs():
        _check_orbit_representatives(g)


def test_orbit_representatives_one_per_orbit_on_seven_vertices():
    # Vertices 4..6 are imaged through the high four-bit table.
    cat = build_catalog(7)
    for i in random.Random(35).sample(range(cat.class_count), 40):
        _check_orbit_representatives(cat.graph(i))


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
    assert extension_count(SmallGraph(3), 2) == 3
    assert extension_count(SmallGraph.complete(3), 3) == 1
    assert extension_count(SmallGraph.complete(3), 2) == 0
