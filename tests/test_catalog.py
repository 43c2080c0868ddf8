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
from hypothesis import HealthCheck, given, settings, strategies as st

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


def _read_catalog(k, path):
    """The k-vertex catalog the catalog file at path holds, or
    FormatError."""
    return catalog._checked_catalog(
        k, catalog._read_cache(path, catalog._CATALOG_INPUTS))


def _write_catalog(value, path, version=2):
    """value, (edges, auts), written to path as a catalog file."""
    catalog._write_cache(value, path, catalog._CATALOG_INPUTS, version)


def _map_inputs(kind, k):
    """The inputs of kind's map file for k in the cache directory."""
    return catalog._map_inputs(
        [build_catalog(m) for m in range(kind.lowest(k), k + 1)],
        catalog.default_cache_dir())


def _read_file(kind, k):
    """kind's map for k read from its file in the cache directory, or
    FormatError."""
    cats = tuple(build_catalog(m) for m in range(kind.lowest(k), k + 1))
    return catalog._checked_rows(
        catalog._read_cache(catalog.default_cache_dir()
                            / f"k{k}.{kind.suffix}", _map_inputs(kind, k)),
        cats[-1].class_count, kind.check(cats))


def _map_bytes(kind, k, rows):
    """The bytes of kind's map file for k in the cache directory, were it
    to hold rows."""
    path = catalog.default_cache_dir() / "rows.tmp"
    catalog._write_cache(rows, path, _map_inputs(kind, k))
    data = path.read_bytes()
    path.unlink()
    return data


def _replace_row(rows, i, row):
    return _map_bytes(edge_deletions, 5, rows[:i] + (row,) + rows[i + 1:])


def _other_inputs(data, _):
    """data under the inputs digest of another catalog: stale."""
    other = hashlib.sha256(b"another catalog").digest()
    return data[:len(catalog._CACHE_MAGIC)] + other + \
        data[len(catalog._CACHE_MAGIC) + 32:]


# k = 5: class 2 has two edges, and deleting either gives class 1, the one
# class with one edge; class 33 is K5, whose ten deletions all give 32.
# Each corruption gives the file's new bytes from its bytes and rows.
EDGES_CORRUPTIONS = {
    "bad header": lambda data, _: b"junk" + data[4:],
    "truncated": lambda data, _: data[:len(data) // 2],
    "index out of range": lambda _, rows: _replace_row(
        rows, 33, (34,) + (32,) * 9),
    "target with the wrong edge count": lambda _, rows: _replace_row(
        rows, 2, (1, 0)),
    "digest of another catalog": _other_inputs,
}
# A file of other inputs is stale: rebuilt as a missing one is, unlogged.
STALE = {"digest of another catalog"}


@pytest.mark.parametrize("corruption", sorted(EDGES_CORRUPTIONS))
def test_corrupt_edge_deletion_map_is_rebuilt_and_logged(corruption,
                                                         tmp_path, caplog,
                                                         monkeypatch):
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    path = _edges_file()
    good = path.read_bytes()
    rows = _read_file(edge_deletions, 5)
    assert _replace_row(rows, 33, (32,) * 10) == good
    assert _replace_row(rows, 2, (1, 1)) == good
    path.write_bytes(EDGES_CORRUPTIONS[corruption](good, rows))
    with pytest.raises(FormatError):
        _read_file(edge_deletions, 5)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        rows = edge_deletions(5)
    assert rows == reference_edge_deletions(5)
    assert any(f"rebuilding {edge_deletions.what} k=5" in r.getMessage()
               for r in caplog.records) == (corruption not in STALE)
    assert path.read_bytes() == good


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
    homcount.plan_of.cache_clear()
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
    Returns the map file of name at k, its bytes, its rows and the
    results."""
    want = _results(k)
    _forget_maps()
    for plans in directory.glob(f"k*.{homcount.PLAN_SUFFIX}"):
        plans.unlink()
    path = directory / f"k{k}.{name}"
    return path, path.read_bytes(), _read_file(MAPS[name], k), want


def _edit_row(kind, rows, i, edit):
    """The bytes of kind's k = 5 map file with row i of rows edited."""
    row = tuple(edit(list(rows[i])))
    return _map_bytes(kind, 5, rows[:i] + (row,) + rows[i + 1:])


# k = 5: class 0 is the edgeless graph and class 33 is K5.  K5 has one
# partition into independent sets, so its quotient row is its own global
# id, 1 + 2 + 4 + 11 + 33 = 51, with sum 1; K5 minus any vertex is K4,
# class 10 of the 11 four-vertex classes, and K5 minus any edge is class
# 32.  Each corruption gives the file's new bytes from the map, its
# bytes and its rows, and comes with the words of the failed rule that
# the logged rebuild line must hold, or None for a stale file, which is
# rebuilt unlogged.  A map declared later gets the three corruptions
# every map gets.
MAP_CORRUPTIONS = {
    "edges": {
        "too few entries": (
            lambda kind, _, rows: _edit_row(kind, rows, 33, lambda r: r[1:]),
            "an edge row has e(C) entries"),
    },
    "vertices": {
        "index out of range": (
            lambda kind, _, rows: _edit_row(kind, rows, 33,
                                            lambda r: [11] + r[1:]),
            "a class with e(C) - deg(v) edges"),
        "target with the wrong edge count": (
            lambda kind, _, rows: _edit_row(kind, rows, 0,
                                            lambda r: [1] + r[1:]),
            "a class with e(C) - deg(v) edges"),
        "too few entries": (
            lambda kind, _, rows: _edit_row(kind, rows, 33, lambda r: r[1:]),
            "a vertex row has k entries"),
    },
    "quotients": {
        "own class missing": (
            lambda kind, _, rows: _edit_row(kind, rows, 33, lambda r: []),
            "ends with its own class and sum 1"),
        "zero sum": (
            lambda kind, _, rows: _edit_row(kind, rows, 0,
                                            lambda r: r[:1] + [0] + r[2:]),
            "sums are not zero"),
        "id out of range": (
            lambda kind, _, rows: _edit_row(kind, rows, 0,
                                            lambda r: [52] + r[1:]),
            "ids are classes on at most k vertices"),
        "odd length": (
            lambda kind, _, rows: _edit_row(kind, rows, 0,
                                            lambda r: r + [1]),
            "a quotient row has even length"),
    },
}
for name in MAPS:
    corruptions = MAP_CORRUPTIONS.setdefault(name, {})
    corruptions["bad header"] = (
        lambda kind, data, _: b"junk" + data[4:], "bad magic number")
    corruptions["truncated"] = (
        lambda kind, data, _: data[:len(data) // 2], "checksum mismatch")
    corruptions["digest of another catalog"] = (
        lambda kind, data, rows: _other_inputs(data, rows), None)


@pytest.mark.parametrize("name, corruption", [
    (name, corruption) for name in sorted(MAP_CORRUPTIONS)
    for corruption in sorted(MAP_CORRUPTIONS[name])])
def test_corrupt_map_is_rebuilt_and_logged(name, corruption, cache_env,
                                           caplog):
    kind = MAPS[name]
    corrupt, rule = MAP_CORRUPTIONS[name][corruption]
    path, good, rows, want = _written(cache_env, name, 5)
    if name == "edges":
        assert rows[33] == (32,) * 10
    elif name == "vertices":
        assert _edit_row(kind, rows, 33, lambda r: r) == good
        assert rows[33] == (10,) * 5
        assert rows[0] == (0,) * 5
    else:
        assert rows[33] == (51, 1)
    path.write_bytes(corrupt(kind, good, rows))
    with pytest.raises(FormatError):
        _read_file(kind, 5)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert _results(5) == want
    logged = [r.getMessage() for r in caplog.records
              if f"rebuilding {kind.what} k=5: {path}: " in r.getMessage()]
    if rule is None:
        assert logged == []
    else:
        assert any(rule in message for message in logged)
    assert path.read_bytes() == good


@pytest.mark.parametrize("name", [name for name in sorted(MAPS)
                                  if MAPS[name].lowest(5) < 5])
def test_stale_lower_catalog_is_caught(name, cache_env, caplog):
    # Rows index the catalogs below k too, so the inputs digest covers
    # them: the same k4 classes in other bytes make the k = 5 map stale.
    # A stale map is recomputed and rewritten under its new inputs, with
    # nothing logged, as a missing one is.
    kind = MAPS[name]
    path, good, rows, want = _written(cache_env, name, 5)
    old = _map_inputs(kind, 5)
    lower = cache_env / "k4.catalog"
    _write_catalog(catalog._read_cache(lower, catalog._CATALOG_INPUTS),
                   lower, version=4)
    new = _map_inputs(kind, 5)
    assert new != old
    assert _map_bytes(kind, 5, rows) == good.replace(
        hashlib.sha256(old).digest(), hashlib.sha256(new).digest(), 1)
    with pytest.raises(catalog._Stale):
        _read_file(kind, 5)
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert _results(5) == want
    assert caplog.records == []
    assert path.read_bytes() == _map_bytes(kind, 5, rows)


CACHE_KINDS = ("catalog", "edges", "vertices", "quotients", "plans")


def _plan_value(plan):
    """A plan as values that compare equal across reads: its joins as
    code objects."""
    return (plan[:5], plan.keys,
            [(join.__code__, *rest) for join, *rest in plan.joins])


def _cache_file(kind):
    """(path, inputs, what, read) of kind's file at k = 4 in the cache
    directory: read() forgets what the process holds of the file, then
    gives the value the program takes from it, which it rebuilds and
    rewrites when the file is missing or fails."""
    directory = catalog.default_cache_dir()
    if kind == "catalog":
        def read():
            catalog._catalog_cached.cache_clear()
            return build_catalog(4)
        return (directory / "k4.catalog", catalog._CATALOG_INPUTS,
                "catalog", read)
    if kind == "plans":
        def read():
            homcount.load_plans.cache_clear()
            homcount.plan_of.cache_clear()
            return list(map(_plan_value, counting.class_plans(
                build_catalog(4).graphs())))
        return (directory / f"k4.{homcount.PLAN_SUFFIX}",
                homcount._planner_inputs(), "plans", read)

    def read():
        catalog._class_map_cached.cache_clear()
        return MAPS[kind](4)
    return (directory / f"k4.{kind}", _map_inputs(MAPS[kind], 4),
            MAPS[kind].what, read)


# Values marshal writes, none of them the value of any cache file at
# k = 4: too few rows or classes for a catalog or a map, and no plan.
_WRONG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.binary(max_size=4),
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4)
    | st.dictionaries(st.integers(), inner, min_size=1, max_size=3),
    max_leaves=8)
_NOT_INTS = st.sampled_from(["x", 1.5, None, True, b"1", (1,), [1]])


def _spoiled(kind, good, data):
    """The value good of kind's file, spoiled in one place that its checks
    cover: for a catalog or a map, an entry of the wrong type, a tuple
    made a list or one dropped; for plans, a plan or its key of the wrong
    type or shape, or a join without code."""
    if kind == "plans":
        edges = data.draw(st.sampled_from(sorted(good)))
        plan = good[edges]
        spoiled = dict(good)
        what = data.draw(st.sampled_from(("key", "list", "short", "join")))
        if what == "key":
            spoiled[str(edges)] = spoiled.pop(edges)
        elif what == "list":
            spoiled[edges] = list(plan)
        elif what == "short":
            spoiled[edges] = plan[:6]
        else:
            spoiled[edges] = (*plan[:5], tuple((b"join", *rest)
                                               for _, *rest in plan[5]),
                              plan[6])
        return spoiled
    how = data.draw(st.sampled_from(("entry", "list", "drop")))
    if how == "list":
        return list(good)
    if how == "drop":
        return good[:-1]
    i = data.draw(st.sampled_from([i for i, row in enumerate(good) if row]))
    j = data.draw(st.integers(0, len(good[i]) - 1))
    row = good[i][:j] + (data.draw(_NOT_INTS),) + good[i][j + 1:]
    return good[:i] + (row,) + good[i + 1:]


@pytest.mark.parametrize("kind", CACHE_KINDS)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_any_bad_cache_file_is_rebuilt_and_logged(kind, data, cache_env,
                                                  caplog):
    """Arbitrary bytes, a truncated envelope, or a whole envelope whose
    body holds a value of the wrong type or shape, in place of a good
    file of any kind: reading it logs a rebuild and gives what a fresh
    compute gives, never a traceback."""
    path, inputs, what, read = _cache_file(kind)
    path.unlink(missing_ok=True)
    fresh = read()
    good = path.read_bytes()
    how = data.draw(st.sampled_from(("bytes", "truncated", "value")))
    if how == "bytes":
        path.write_bytes(data.draw(st.binary(max_size=300)))
    elif how == "truncated":
        path.write_bytes(good[:data.draw(st.integers(0, len(good) - 1))])
    else:
        value = catalog._read_cache(path, inputs)
        wrong = _spoiled(kind, value, data) if data.draw(st.booleans()) \
            else data.draw(_WRONG_VALUES)
        catalog._write_cache(wrong, path, inputs)
    path.chmod(0o600)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert read() == fresh
    assert any(r.getMessage().startswith(f"rebuilding {what} k=4: {path}: ")
               for r in caplog.records)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_map_write_failure_is_logged(name, cache_env, caplog):
    kind = MAPS[name]
    path, _, _, want = _written(cache_env, name, 5)
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
    path, _, _, want = _written(cache_env, name, 5)
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
        cat = _read_catalog(k, tmp_path / f"k{k}.catalog")
        assert cat.class_count == CLASS_COUNTS[k]
        assert "_buckets" not in vars(cat)
    monkeypatch.undo()
    assert cat.index_of(SmallGraph.complete(5)) == cat.class_count - 1


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    first = build_catalog(5)
    assert (tmp_path / "k5.catalog").exists()
    again = _read_catalog(5, tmp_path / "k5.catalog")
    assert again == first


def test_cache_files_round_trip_to_the_same_bytes(tmp_path):
    # A value read back and written again gives the bytes it was read
    # from, so a catalog rewritten unchanged keeps the maps' inputs: the
    # writer's marshal version 2 sets no reference flags.
    build_catalog(8)
    MAPS["quotients"](7)
    directory = catalog.default_cache_dir()
    for name in ("k8.catalog", "k7.quotients"):
        inputs = catalog._CATALOG_INPUTS if name.endswith("catalog") \
            else _map_inputs(MAPS["quotients"], 7)
        value = catalog._read_cache(directory / name, inputs)
        catalog._write_cache(value, tmp_path / name, inputs)
        assert (tmp_path / name).read_bytes() == \
            (directory / name).read_bytes()


# k = 3: the classes are the graphs with 0, 1, 2 and 3 edges, K3 last
# with edge bitset 7 and 6 automorphisms.  Each corruption is a value
# of the right envelope, and the words its FormatError holds.
K3_CATALOG = ((0, 4, 6, 7), (6, 2, 2, 6))
CATALOG_CORRUPTIONS = {
    "not a pair": ([0, 1, 3, 7], "not a pair of tuples"),
    "three tuples": (K3_CATALOG + ((),), "not a pair of tuples"),
    "a str bitset": (((0, 4, 6, "Bw"), (6, 2, 2, 6)), "tuples of ints"),
    "a bool bitset": (((0, 4, 6, True), (6, 2, 2, 6)), "tuples of ints"),
    "class count lies": (((0, 4, 6, 7), (6, 2, 2)),
                         "one automorphism count per class"),
    "out of order": (((0, 6, 4, 7), (6, 2, 2, 6)), "catalog order"),
    "a padding bit set": (((0, 4, 6, 15), (6, 2, 2, 6)), "out of range"),
    "a negative bitset": (((-1, 4, 6, 7), (6, 2, 2, 6)), "out of range"),
    "automorphism count of zero": (((0, 4, 6, 7), (6, 2, 2, 0)),
                                   "does not divide k!"),
    "automorphism count not dividing k!": (((0, 4, 6, 7), (6, 4, 2, 6)),
                                           "does not divide k!"),
    "labeled total": (((0, 4, 6, 7), (6, 2, 2, 3)), "labeled total"),
}


def test_corrupt_cache_rejected(tmp_path):
    path = tmp_path / "k3.catalog"
    path.write_bytes(b"junk\n")
    path.chmod(0o600)
    with pytest.raises(FormatError, match="bad magic number"):
        _read_catalog(3, path)
    cat = build_catalog(3)
    assert (cat.edges, cat.auts) == K3_CATALOG
    _write_catalog(K3_CATALOG, path)
    assert _read_catalog(3, path) == cat
    four = build_catalog(4)
    for value, words in [*CATALOG_CORRUPTIONS.values(),
                         ((four.edges, four.auts), "out of range")]:
        _write_catalog(value, path)
        with pytest.raises(FormatError, match=words):
            _read_catalog(3, path)
    # The catalog of another format version is stale.
    catalog._write_cache(K3_CATALOG, path, b"indsub catalog v1")
    with pytest.raises(catalog._Stale):
        _read_catalog(3, path)


def test_padding_bit_line_is_rebuilt_and_logged(tmp_path, caplog,
                                                monkeypatch):
    # K3's edge bitset with a bit past its C(3, 2) = 3 pairs set would give
    # K3 in graph6 too, but no graph has it.
    build_catalog(3)
    good = (catalog.default_cache_dir() / "k3.catalog").read_bytes()
    path = tmp_path / "k3.catalog"
    _write_catalog(((0, 4, 6, 7 | 1 << 3), (6, 2, 2, 6)), path)
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert build_catalog(3).graph6[-1] == "Bw"
    assert any("rebuilding catalog k=3" in r.getMessage()
               and "an edge bitset out of range" in r.getMessage()
               for r in caplog.records)
    assert path.read_bytes() == good


def test_user_graph6_reader_stays_lenient():
    assert SmallGraph.from_graph6("G~~~~~") == SmallGraph.complete(8)
    assert SmallGraph.complete(8).to_graph6() == "G~~~~{"


def test_warm_load_builds_no_graph(tmp_path, monkeypatch):
    build_catalog(8)
    for k in range(1, 9):
        name = f"k{k}.catalog"
        (tmp_path / name).write_bytes(
            (catalog.default_cache_dir() / name).read_bytes())
        (tmp_path / name).chmod(0o600)     # whatever the umask

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
    path = tmp_path / "k3.catalog"
    path.write_text("junk\n")
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        cat = build_catalog(3)
    assert cat.class_count == CLASS_COUNTS[3]
    assert _read_catalog(3, path) == cat
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
    cat = build_catalog(4)
    path = tmp_path / "k4.catalog"
    i = next(i for i, (a, b) in enumerate(zip(cat.edges, cat.edges[1:]))
             if a.bit_count() == b.bit_count())

    def swapped(values):
        return values[:i] + (values[i + 1], values[i]) + values[i + 2:]

    for value in ((swapped(cat.edges), swapped(cat.auts)),
                  (cat.edges[::-1], cat.auts[::-1])):
        _write_catalog(value, path)
        with pytest.raises(FormatError, match="catalog order"):
            _read_catalog(4, path)
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="indsub.catalog"):
        assert build_catalog(4) == cat
    assert any("rebuilding catalog k=4" in r.getMessage()
               for r in caplog.records)
    assert _read_catalog(4, path) == cat


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
                _write_catalog((cat.edges, cat.auts), path)
                assert _read_catalog(5, path) == cat
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
    assert _read_catalog(5, path) == cat
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
            assert _read_catalog(
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
    homcount.plan_of.cache_clear()
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


# The sha256 of every cache file built cold, in the one envelope with
# marshal version 2.  The values they hold are those of the text files
# they replaced: the catalogs are those built without the vertex-key
# test, canonicalising one neighbor mask per orbit of every parent; their
# k <= 7 classes are those built by extending every neighbor mask of
# every parent with the reference canoniser.  The maps' rows are those
# built from those catalogs before the canoniser used twins.
COLD_CACHE_SHA256 = {
    "k1.catalog":
        "11387769a0f85e202f6216bf6cad84e4c0d7c8c115f3cca50b51982465f189a1",
    "k2.catalog":
        "0ec1ef663e5232666f3f77b0320aaac7cacaee911e240fe48279abca1f8af32b",
    "k3.catalog":
        "326777027d4b3dce8640b6f9bd8b68ab2ad0fe1236be18ba99be8b6656c49f51",
    "k4.catalog":
        "cd5b415a6584cc9a7e24951e425a967553946229a0f7d2f191e192e86b056152",
    "k5.catalog":
        "8e2bef0bff87b6991719fc7056e9637dee7ebd83e3f3b973dd4050eb7ed940fc",
    "k6.catalog":
        "74ed0932fe1ac84208c3848cb078fb8cae260adeaf44114593745a55404e0255",
    "k7.catalog":
        "a294569f92ad478fbb2684141b13ef3fe5ab0dc285bda5bef971db2cf49f6b39",
    "k8.catalog":
        "02aea481ec924a5646ef26a1c50af96d80d957429485c69a8a7d9e835b0d5a1e",
    "k1.edges":
        "b46ce69a63ccf69c1750e4c8c2065cd0d9d2f24f349b39d700ad9af06d5eb3e8",
    "k2.edges":
        "ac84dfbadd8acb870f9131fae6e729d49ec186613b749b84deeead23fad471e4",
    "k3.edges":
        "c8e95cea70b39264d16555f886745068cb4b7df1489fe0a2c01412615de9ed6a",
    "k4.edges":
        "09a6188231e364f6641f5c3f0fb6c1123c1ab7e042f24702240059690d063fa0",
    "k5.edges":
        "bdc00e2eccf011236a0838e6a88d6f5814cdaceb2c074ddf82040962c7103359",
    "k6.edges":
        "20445dfc4e8cd16eb0a4045a9c83951f53bdcab487ec3dfc8e10eeb2d974b07d",
    "k7.edges":
        "9263a2efad388785ae2bd4578061e9e2b80b7f14bcac23e0eeff2b202edf810e",
    "k1.quotients":
        "4290ccacf4f39c0f3b7ecf179ade51b6d7293f66f00e659d3af5483af2ac6f8d",
    "k2.quotients":
        "02908dcac0a2a0c1efad37705c25a440a1520cd2a520649b64883d4eed5e9311",
    "k3.quotients":
        "e842df795292e8c1edaf0b725e8834096aa530ed921943048cb703ccd25b1163",
    "k4.quotients":
        "362ffe087cf9fc3281ef2852d64de134f5eb39a1e82cf943d3e3c85366e70a1e",
    "k5.quotients":
        "8abfbdcec787509e82fba74ff996759272e80f225a9bd9f4c96e23dbdd0b1940",
    "k6.quotients":
        "3fa911c4ea372b6eebcedc1212071c85830d6a93d7c47014745946963ae5fed7",
    "k7.quotients":
        "649b15fc6506429ceaf996084defea54ef24dfbd74d26ea889943b06096aa56b",
    "k2.vertices":
        "dce0ba160cee9e392572cce6f99b77ccd525baaad5e08867b54c50c0162a40b6",
    "k3.vertices":
        "dac3586815347c34a92584a2b02137e1be25bbe88cab20bf1fcee685ad2621ca",
    "k4.vertices":
        "37aff807dddce85a65ef224a2baf9ae5e9b21b3ef47c6f0ebed62120f94d9d6c",
    "k5.vertices":
        "c35cbc18966b65aedf8588ac5057f87caae317456652fd88e3cea66c6e0fe41f",
    "k6.vertices":
        "3bef9eca22da5b5d8be70a2492971b7def690f7f0fc1da4401e139663c1458cb",
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
