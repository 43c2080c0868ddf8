"""Tests for induced-subgraph counting: enumeration vs basis evaluation."""

import builtins
import hashlib
import itertools
import logging
import marshal
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib.util import MAGIC_NUMBER
from math import comb
from pathlib import Path

import pytest

import indsub.counting as counting_module
import indsub.homcount as homcount
from indsub import catalog, cli
from indsub.catalog import MAX_HOM_VECTOR_K, build_catalog
from indsub.counting import (
    DEFAULT_SUBSET_BUDGET,
    _class_decomposition,
    count_basis,
    count_brute,
    elimination_orders,
)
from indsub.errors import (
    BudgetExceededError,
    FormatError,
    InternalConsistencyError,
    PredicateError,
)
from indsub.graphs import HostGraph, SmallGraph
from indsub.hombasis import HomVector, hom_vector
from indsub.homcount import (
    JOIN_CACHE_SIZE,
    JOIN_FILE,
    HomStore,
    count_hom,
    decomposition_from_order,
    exact_treewidth,
    tree_decomposition,
)
from indsub.properties import BUILTIN_PROPERTIES, PropertySpec, get_property, invert

from oracles import brute_indsub_count, host_complement, induced_small, random_host


@pytest.mark.parametrize("prop_name", ["connected", "bipartite", "chordal",
                                       "split", "edge-count-even"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_basis_equals_brute_on_random_hosts(prop_name, k):
    phi = get_property(prop_name)
    rng = random.Random(hash((prop_name, k)) & 0xFFFF)
    for _ in range(5):
        host = random_host(rng, rng.randint(k, 8), p=rng.choice([0.2, 0.5, 0.8]))
        expected = count_brute(phi, k, host)
        assert expected == brute_indsub_count(phi, k, host)
        assert count_basis(phi, k, host) == expected


def test_basis_and_brute_on_named_hosts():
    petersen = HostGraph.from_graph6("IheA@GUAo")
    conn = get_property("connected")
    # 30 = 15 edges + 15 paths of length two... no: count of connected
    # 3-subsets of the Petersen graph, frozen from direct enumeration.
    assert count_brute(conn, 3, petersen) == 30
    assert count_basis(conn, 3, petersen) == 30
    tri_free = get_property("triangle-free")
    assert count_basis(tri_free, 3, petersen) == comb(10, 3)  # girth 5
    complete6 = HostGraph.from_small(SmallGraph.complete(6))
    assert count_basis(conn, 4, complete6) == comb(6, 4)
    assert count_basis(get_property("no-edges"), 3, complete6) == 0


def test_basis_equals_brute_at_k_6_and_7():
    """Every built-in at k = 6 and 7, past acceptance criterion 1's k <= 5,
    on six seeded hosts of 9-13 vertices.  The loop is host-major, so
    that the hom counts kept for the last host serve every property."""
    rng = random.Random(67)
    mismatches = []
    for n, p in zip((9, 10, 11, 12, 13, 13), (0.25, 0.4, 0.55) * 2):
        host = random_host(rng, n, p)
        for k in (6, 7):
            for name in sorted(BUILTIN_PROPERTIES):
                phi = get_property(name)
                expected = count_brute(phi, k, host)
                got = count_basis(phi, k, host)
                if got != expected:
                    mismatches.append((host.to_edge_list_text(), k, name, got, expected))
    assert not mismatches


def test_k_edge_cases():
    host = random_host(random.Random(7), 6, p=0.5)
    phi = get_property("connected")
    # k = 0: the one 0-subset induces K_0; both routes must agree on it.
    assert count_basis(phi, 0, host) == count_brute(phi, 0, host) in (0, 1)
    for k in (7, 9):
        assert count_basis(phi, k, host) == count_brute(phi, k, host) == 0
    with pytest.raises(ValueError):
        count_brute(phi, -1, host)


def test_budget_enforced():
    host = random_host(random.Random(1), 12, p=0.5)
    with pytest.raises(BudgetExceededError):
        count_brute(get_property("connected"), 6, host, budget=100)
    # comb(12, 6) = 924 fits in the default budget.
    assert DEFAULT_SUBSET_BUDGET >= comb(12, 6)


def test_negative_budget_rejected_before_any_work():
    calls = []
    phi = PropertySpec("recording", lambda g: calls.append(g) or True)
    host = random_host(random.Random(2), 5, p=0.5)
    for k in (0, 2, 6):
        with pytest.raises(ValueError):
            count_brute(phi, k, host, budget=-1)
    assert calls == []
    assert count_brute(phi, 2, host, budget=comb(5, 2)) == comb(5, 2)


def _brute_hosts():
    rng = random.Random(60)
    return [HostGraph.from_edges(0, [])] + [
        random_host(rng, n, p) for n, p in ((1, 0.5), (5, 0.5), (8, 0.3),
                                            (10, 0.5))]


@pytest.mark.parametrize("prop_name", sorted(BUILTIN_PROPERTIES))
def test_brute_matches_subset_oracle(prop_name):
    phi = get_property(prop_name)
    for host in _brute_hosts():
        for k in range(host.n + 2):
            assert count_brute(phi, k, host) == \
                brute_indsub_count(phi, k, host), (host.to_graph6(), k)


def test_brute_matches_subset_oracle_with_a_tiny_memo(monkeypatch):
    monkeypatch.setattr(counting_module, "MEMO_CAP", 8)
    for prop_name in ("bipartite", "chordal", "edge-count-even"):
        phi = get_property(prop_name)
        for host in _brute_hosts():
            for k in range(host.n + 2):
                assert count_brute(phi, k, host) == \
                    brute_indsub_count(phi, k, host), (prop_name, k)


def _assert_sweep_order(host, ks):
    """count_brute evaluates each induced labelled graph once, in the
    order combinations(range(n), k) first meets it, and counts them all."""
    for k in ks:
        seen = []
        phi = PropertySpec("edges", lambda g: seen.append(g) or g.edge_count % 2)
        sweep = [induced_small(host, subset)
                 for subset in itertools.combinations(range(host.n), k)]
        assert count_brute(phi, k, host) == \
            sum(g.edge_count % 2 for g in sweep)
        assert seen == list(dict.fromkeys(sweep)), k


def test_brute_evaluates_each_induced_labelled_graph_once_in_sweep_order():
    _assert_sweep_order(random_host(random.Random(62), 14, p=0.4),
                        (1, 3, 4, 5))


# Hosts whose edges run from a vertex back to earlier ones, where a sweep
# that marks only later neighbours must still see every edge: a star
# centred on the last vertex, a path labelled in reverse (from 7 down to
# 0) and one whose labels zigzag (7, 0, 6, 1, ..., 4, 3), K_n, and a host
# with isolated vertices between the ends of its edges.
BACKWARD_HOSTS = {
    "star-last-centre": HostGraph.from_edges(7, [(v, 6) for v in range(6)]),
    "reversed-path": HostGraph.from_edges(
        8, [(v, v - 1) for v in range(7, 0, -1)]),
    "zigzag-path": HostGraph.from_edges(
        8, list(itertools.pairwise((7, 0, 6, 1, 5, 2, 4, 3)))),
    "complete": HostGraph.from_small(SmallGraph.complete(7)),
    "isolated-between": HostGraph.from_edges(
        9, [(0, 4), (4, 8), (0, 8), (2, 8), (2, 6)]),
}


@pytest.mark.parametrize("name", sorted(BACKWARD_HOSTS))
def test_brute_on_hosts_with_backward_edges(name):
    host = BACKWARD_HOSTS[name]
    for prop_name in ("connected", "triangle-free", "edge-count-even",
                      "chordal"):
        phi = get_property(prop_name)
        for k in range(host.n + 2):
            assert count_brute(phi, k, host) == \
                brute_indsub_count(phi, k, host), (prop_name, k)
    _assert_sweep_order(host, range(1, host.n + 1))


def test_brute_names_the_first_graph_the_predicate_fails_on():
    def fussy(g):
        # a labelled condition, so the offending graph depends on the order
        # in which subsets are visited; graphs seen before it do not raise
        if g.edge_count == 2 and not g.has_edge(0, 1):
            raise RuntimeError("boom")
        return g.edge_count % 3 == 0

    phi = PropertySpec("fussy", fussy)
    host = random_host(random.Random(61), 9, p=0.4)
    for k in (3, 4, 5):
        with pytest.raises(PredicateError) as expected:
            brute_indsub_count(phi, k, host)
        with pytest.raises(PredicateError) as got:
            count_brute(phi, k, host)
        assert str(got.value) == str(expected.value)


def _petersen() -> HostGraph:
    return HostGraph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _count_bag_tables(monkeypatch) -> list:
    """A list that gets one entry per bag table the hom DP computes."""
    runs = []
    bag_table = homcount._bag_table

    def counted(*args):
        runs.append(args)
        return bag_table(*args)

    monkeypatch.setattr(homcount, "_bag_table", counted)
    return runs


def test_count_basis_shares_sub_pattern_tables(monkeypatch):
    """Fewer bags run the hom DP than the plan holds: a bag whose rooted
    sub-pattern another bag of the call has computed takes that table."""
    phi = get_property("connected")
    host = _petersen()
    planned = sum(len(_class_decomposition(g).bags)
                  for g, _ in hom_vector(phi, 5).entries)
    runs = _count_bag_tables(monkeypatch)
    assert count_basis(phi, 5, host) == count_brute(phi, 5, host)
    assert len(runs) < planned


def _stored_decompositions_are_the_dp_ones(k, classes):
    """The stored order's decomposition is tree_decomposition's, and it is
    optimal on every component: the bags holding a component's vertices
    are as wide as that component's treewidth."""
    cat = build_catalog(k)
    orders = elimination_orders(k)
    for i in classes:
        g = cat.graph(i)
        td = decomposition_from_order(g, orders[i])
        want = tree_decomposition(g)
        assert (td.bags, td.parent) == (want.bags, want.parent)
        assert td.width == max(exact_treewidth(g), 0)
        for comp in g.components():
            width = max(len(bag) for bag in td.bags if bag[0] in comp) - 1
            assert width == exact_treewidth(g.induced(comp)), \
                (g.to_graph6(), comp, td.bags)


@pytest.mark.parametrize("k", range(1, 7))
def test_stored_orders_give_the_dp_decompositions(k):
    _stored_decompositions_are_the_dp_ones(
        k, range(build_catalog(k).class_count))


def test_stored_orders_give_the_dp_decompositions_on_sampled_7_classes():
    classes = random.Random(7).sample(range(build_catalog(7).class_count), 60)
    _stored_decompositions_are_the_dp_ones(7, classes)


def test_count_basis_runs_no_treewidth_dp(monkeypatch):
    """Every pattern, disconnected ones included, is planned from its
    class's stored elimination order."""
    phi = get_property("chordal")
    host = _petersen()
    want = count_brute(phi, 5, host)
    assert any(not g.is_connected() for g, _ in hom_vector(phi, 5).entries)
    for k in range(1, 6):
        elimination_orders(k)

    def refuse(g):
        raise AssertionError(f"treewidth DP run on {g.to_graph6()}")

    monkeypatch.setattr(homcount, "tree_decomposition", refuse)
    monkeypatch.setattr(homcount, "_tw_table", refuse)
    assert count_basis(phi, 5, host) == want


def test_hom_counts_on_representatives_build_no_catalog(monkeypatch):
    graphs = list(build_catalog(5).graphs())
    host = _petersen()
    want = [count_hom(g, host) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("a catalog was built or read")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("indsub") and \
                hasattr(mod, "build_catalog"):
            monkeypatch.setattr(mod, "build_catalog", refuse)
    monkeypatch.setattr(catalog, "_catalog_cached", refuse)
    monkeypatch.setattr(catalog, "_class_map_cached", refuse)
    for g, homs in zip(graphs, want):
        tree_decomposition(g)
        assert count_hom(g, host) == homs


class _CheckedStore(homcount.HomStore):
    """A HomStore that checks, after every store and take, that it holds
    no table whose planned reads are all made."""

    made: list = []

    def __init__(self, host):
        super().__init__(host)
        self.made.append(self)

    def _check(self):
        assert all(self._reads.get(key, 0) > 0 for key in self._tables)

    def _put(self, key, table):
        super()._put(key, table)
        self._check()

    def _take(self, key):
        table = super()._take(key)
        self._check()
        return table


@pytest.mark.parametrize("name, k", [("connected", 5), ("split", 5),
                                     ("bipartite", 4)])
def test_count_basis_frees_each_table_after_its_last_read(monkeypatch, name, k):
    monkeypatch.setattr(counting_module, "HomStore", _CheckedStore)
    monkeypatch.setattr(_CheckedStore, "made", [])
    phi = get_property(name)
    host = random_host(random.Random(63), 12, p=0.4)
    assert count_basis(phi, k, host) == count_brute(phi, k, host)
    (store,) = _CheckedStore.made
    # every planned read was made, so nothing is left
    assert not store._tables and not store._reads


def _triangles(host: HostGraph) -> int:
    return sum(len(set(host.neighbors[u]) & set(host.neighbors[v]))
               for u, v in host.edge_pairs()) // 3


def _moved_edge(host: HostGraph) -> HostGraph:
    """host with one edge moved to a non-edge so that the triangle count
    changes: the same vertex and edge counts, one edge different, and not
    isomorphic to host."""
    pairs = host.edge_pairs()
    gaps = [(u, v) for u in range(host.n) for v in range(u + 1, host.n)
            if v not in host.neighbors[u]]
    return next(moved for drop in pairs for gap in gaps
                for moved in [HostGraph.from_edges(
                    host.n, [e for e in pairs if e != drop] + [gap])]
                if _triangles(moved) != _triangles(host))


def test_kept_counts_match_brute_across_interleaved_hosts():
    """count_basis keeps the counts of its last host: calls that switch
    between hosts, properties and k, on equal hosts built apart and on
    hosts that differ in one edge only, all agree with enumeration."""
    rng = random.Random(64)
    a = random_host(rng, 9, p=0.4)
    twin = HostGraph.from_edges(a.n, a.edge_pairs())
    moved = _moved_edge(a)
    other = random_host(rng, 8, p=0.6)
    assert twin == a and twin is not a
    assert (moved.n, moved.edge_count) == (a.n, a.edge_count)
    # bipartite at k = 3 counts the 3-sets that are not triangles
    bipartite = get_property("bipartite")
    assert count_brute(bipartite, 3, moved) != count_brute(bipartite, 3, a)
    hosts = (a, moved, twin, other, a, twin, moved)
    calls = [("connected", 5), ("triangle-free", 4), ("chordal", 5),
             ("bipartite", 3), ("no-edges", 5), ("edge-count-even", 4)]
    for i, host in enumerate(hosts):
        for name, k in calls[i % 3:] + calls[:i % 3]:
            phi = get_property(name)
            assert count_basis(phi, k, host) == count_brute(phi, k, host), \
                (i, name, k)


def test_count_basis_reuses_the_counts_of_an_equal_host(monkeypatch):
    """Once connected and bipartite are counted at k = 5, every pattern of
    triangle-free's k = 5 vector, and of connected's at k = 4, has its
    count kept, so on an equal host neither runs the DP."""
    covered = {g for name in ("connected", "bipartite")
               for g, _ in hom_vector(get_property(name), 5).entries}
    tri_free, conn = get_property("triangle-free"), get_property("connected")
    assert {g for g, _ in hom_vector(tri_free, 5).entries} <= covered
    want = (count_brute(tri_free, 5, _petersen()),
            count_brute(conn, 4, _petersen()))
    runs = _count_bag_tables(monkeypatch)
    count_basis(conn, 5, _petersen())
    count_basis(get_property("bipartite"), 5, _petersen())
    assert runs
    runs.clear()
    assert (count_basis(tri_free, 5, _petersen()),
            count_basis(conn, 4, _petersen())) == want
    assert not runs


def test_count_basis_keeps_the_last_host_only(monkeypatch):
    phi = get_property("connected")
    a = _petersen()
    b = _moved_edge(a)
    runs = _count_bag_tables(monkeypatch)
    want = count_basis(phi, 5, a)
    first = len(runs)
    assert count_basis(phi, 5, b) == count_brute(phi, 5, b)
    assert len(runs) == 2 * first
    # b took a's place, so a is counted again, as the first time
    assert count_basis(phi, 5, a) == want
    assert len(runs) == 3 * first
    assert counting_module._host_homs.cache_info().currsize == 1


def test_each_class_is_planned_once_per_process(monkeypatch):
    """A plan depends on the pattern and its decomposition alone, so
    across hosts and properties each class is planned once: the second
    host counts every class again with the plans the first one made."""
    planned = []
    plan = homcount._plan

    def recorded(pattern, td):
        planned.append(pattern)
        return plan(pattern, td)

    monkeypatch.setattr(homcount, "_plan", recorded)
    rng = random.Random(65)
    hosts = [random_host(rng, 10, p=0.4) for _ in range(2)]
    names = ("connected", "chordal", "split")
    runs = _count_bag_tables(monkeypatch)
    for host in hosts:
        for name in names:
            phi = get_property(name)
            assert count_basis(phi, 5, host) == count_brute(phi, 5, host)
    classes = {g for name in names
               for g, _ in hom_vector(get_property(name), 5).entries}
    assert sorted(planned, key=repr) == sorted(classes, key=repr)
    # the second host joined the same bags as the first, with the very
    # plans the first one made
    half = len(runs) // 2
    assert half and len(runs) == 2 * half
    assert all(a[0] is b[0] and a[1] == b[1]
               for a, b in zip(runs[:half], runs[half:]))


def test_count_basis_flags_non_integral_total(monkeypatch):
    # Hand a vector whose evaluation cannot be an integer count.
    bogus = HomVector(2, ((SmallGraph(1, 0), Fraction(1, 3)),))
    monkeypatch.setattr(counting_module, "hom_vector", lambda phi, k: bogus)
    host = random_host(random.Random(5), 4, p=0.5)
    with pytest.raises(InternalConsistencyError):
        count_basis(get_property("true"), 2, host)


def test_count_basis_flags_negative_total(monkeypatch):
    bogus = HomVector(2, ((SmallGraph(1, 0), Fraction(-1)),))
    monkeypatch.setattr(counting_module, "hom_vector", lambda phi, k: bogus)
    host = random_host(random.Random(6), 4, p=0.5)
    with pytest.raises(InternalConsistencyError):
        count_basis(get_property("true"), 2, host)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_negation_identity(k):
    # #IndSub(phi) + #IndSub(not phi) = C(n, k)
    rng = random.Random(40 + k)
    for prop_name in ("connected", "split"):
        host = random_host(rng, 7, p=0.5)
        phi = get_property(prop_name)
        negated = PropertySpec(f"not-{prop_name}", lambda g: not phi(g))
        assert count_brute(phi, k, host) + count_brute(negated, k, host) == \
            comb(7, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_inversion_identity(k):
    # #IndSub(phi o complement, k, G) = #IndSub(phi, k, complement of G)
    rng = random.Random(50 + k)
    for prop_name in ("no-edges", "triangle-free", "chordal"):
        host = random_host(rng, 7, p=0.5)
        phi = get_property(prop_name)
        assert count_brute(invert(phi), k, host) == \
            count_brute(phi, k, host_complement(host))


def test_false_property_counts_zero():
    host = random_host(random.Random(8), 8, p=0.6)
    assert count_brute(get_property("false"), 3, host) == 0
    assert count_basis(get_property("false"), 3, host) == 0


def test_true_property_counts_all_subsets():
    host = random_host(random.Random(9), 9, p=0.3)
    for k in (1, 2, 3, 4):
        assert count_basis(get_property("true"), k, host) == comb(9, k)


# ------------------------------------------------------------ join file
#
# count_basis keeps the code of its compiled bag joins in the cache
# directory's join file.  Each case counts connected 5-subsets of one
# host, which plans 30 classes.

JOIN_HOST = random_host(random.Random(40), 9, p=0.5)


def _join_count() -> int:
    return count_basis(get_property("connected"), 5, JOIN_HOST)


def _join_brute() -> int:
    return count_brute(get_property("connected"), 5, JOIN_HOST)


@pytest.fixture
def join_dir(tmp_path, monkeypatch):
    """INDSUB_CACHE_DIR at a fresh directory, whose catalogs and maps the
    process already holds, so only the join file is written there."""
    for k in range(1, 6):
        elimination_orders(k)
    hom_vector(get_property("connected"), 5)
    directory = tmp_path / "cache"
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(directory))
    return directory


def _new_process() -> None:
    """Forget what a process keeps of its counts, plans and joins, as a
    new process starts (and as each test starts)."""
    counting_module._host_homs.cache_clear()
    _class_decomposition.cache_clear()
    homcount._validated_plan.cache_clear()
    homcount._compiled.cache_clear()
    homcount._join_codes.cache_clear()
    homcount.load_joins.cache_clear()


def _count_compiles(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(homcount, "compile", counted, raising=False)
    return calls


def _join_file(table) -> bytes:
    body = marshal.dumps(table)
    return MAGIC_NUMBER + hashlib.sha256(body).digest() + body


def test_warm_join_file_compiles_no_join(join_dir, tmp_path, capsys,
                                         monkeypatch):
    host_file = tmp_path / "host.txt"
    host_file.write_text(JOIN_HOST.to_edge_list_text())
    argv = ["count", "--property", "connected", "--k", "5",
            "--graph", str(host_file), "--method", "basis"]
    compiles = _count_compiles(monkeypatch)
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert compiles
    path = join_dir / JOIN_FILE
    written = os.stat(path)
    assert written.st_mode & 0o777 == 0o600
    assert sorted(homcount._read_joins(path)) == sorted(compiles)
    _new_process()
    compiles.clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert compiles == []
    # nothing new was compiled, so the file was not written again
    assert os.stat(path).st_ino == written.st_ino
    assert f'"count": "{_join_brute()}"' in first


def test_join_file_holds_every_class_plan_within_the_bound(join_dir,
                                                           monkeypatch):
    """Every class count_basis may plan fits the join file: after one
    process plans them all, a new one plans them all and compiles
    nothing."""
    classes = [g for k in range(1, MAX_HOM_VECTOR_K + 1)
               for g in build_catalog(k).graphs()]
    path = join_dir / JOIN_FILE
    host = HostGraph.from_edges(1, [])
    compiles = _count_compiles(monkeypatch)
    for again in (False, True):
        if again:
            _new_process()
        held = homcount.load_joins(path)
        store = HomStore(host)
        for g in classes:
            store.plan(g, _class_decomposition(g))
        homcount.save_joins(path)
        assert homcount._join_codes().keys() == held
    # the first process compiled each join once, the second none
    assert len(set(compiles)) == len(compiles) == len(held)
    assert len(homcount._read_joins(path)) <= JOIN_CACHE_SIZE


def _corrupt_joins(path: Path, how: str) -> str:
    """Spoil the join file at path as how says; the words the logged
    rebuild names."""
    data = path.read_bytes()
    head = len(MAGIC_NUMBER) + 32
    if how == "truncated":
        path.write_bytes(data[:len(data) // 2])
        return "checksum mismatch"
    if how == "flipped byte":
        i = head + (len(data) - head) // 3
        path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
        return "checksum mismatch"
    if how == "wrong magic":
        path.write_bytes(bytes(b ^ 0xFF for b in MAGIC_NUMBER)
                         + data[len(MAGIC_NUMBER):])
        return "bad magic number"
    if how == "not a dict":
        path.write_bytes(_join_file(list(homcount._read_joins(path))))
        return "not a table of join code"
    if how == "not code":
        path.write_bytes(_join_file(dict.fromkeys(homcount._read_joins(path),
                                                  b"join")))
        return "not a table of join code"
    assert how == "group-writable"
    path.chmod(0o664)
    return "not the user's own file, or writable by others"


@pytest.mark.parametrize("how", ["truncated", "flipped byte", "wrong magic",
                                 "not a dict", "not code", "group-writable"])
def test_bad_join_file_is_ignored_logged_and_rebuilt(how, join_dir, caplog,
                                                     monkeypatch):
    want = _join_brute()
    assert _join_count() == want
    path = join_dir / JOIN_FILE
    good = homcount._read_joins(path)
    rule = _corrupt_joins(path, how)
    with pytest.raises(FormatError, match=rule):
        homcount._read_joins(path)
    _new_process()
    compiles = _count_compiles(monkeypatch)
    with caplog.at_level(logging.WARNING):
        assert _join_count() == want
    assert any(r.getMessage() == f"rebuilding bag-join code: {path}: {rule}"
               for r in caplog.records)
    # nothing was read: every join was compiled, and the file written anew
    assert sorted(compiles) == sorted(good)
    assert homcount._read_joins(path).keys() == good.keys()
    assert os.stat(path).st_mode & 0o777 == 0o600


@pytest.mark.parametrize("blocked", ["by a directory", "below a file"])
def test_join_save_failure_is_logged(blocked, join_dir, caplog):
    """The join file cannot be written: its name is taken by a directory,
    or the cache directory lies below a regular file.  The count is
    still made, and the failed read and write are logged."""
    if blocked == "by a directory":
        path = join_dir / JOIN_FILE
        (path / "blocker").mkdir(parents=True)
    else:
        join_dir.parent.mkdir(exist_ok=True)
        join_dir.write_text("")
        path = join_dir / JOIN_FILE
    with caplog.at_level(logging.WARNING):
        assert _join_count() == _join_brute()
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("rebuilding bag-join code: ") for m in messages)
    assert any(m.startswith(f"could not write bag-join code {path}: ")
               for m in messages)
    if blocked == "by a directory":
        assert sorted(p.name for p in join_dir.iterdir()) == [JOIN_FILE]


def test_save_past_the_bound_keeps_this_process_joins(join_dir, monkeypatch):
    stale = [f"# stale join {i}\n" for i in range(JOIN_CACHE_SIZE + 8)]
    code = compile("", "<stale>", "exec")
    path = join_dir / JOIN_FILE
    join_dir.mkdir()
    path.write_bytes(_join_file(dict.fromkeys(stale, code)))
    path.chmod(0o600)
    _new_process()
    compiles = _count_compiles(monkeypatch)
    assert _join_count() == _join_brute()
    table = homcount._read_joins(path)
    assert compiles and len(table) == JOIN_CACHE_SIZE
    assert set(compiles) <= table.keys()
    # the stale joins kept are the file's last ones
    assert [s for s in table if s in stale] == \
        stale[len(stale) - JOIN_CACHE_SIZE + len(compiles):]


_JOIN_WRITER = """
import ast, sys, time
from pathlib import Path
from indsub.counting import count_basis
from indsub.graphs import HostGraph
from indsub.properties import get_property
directory, tag, text = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
host = HostGraph.from_edges(*ast.literal_eval(text))
count_basis(get_property("connected"), 3, host)
(directory / f"ready-{tag}").write_text("")
while not (directory / "go").exists():
    time.sleep(0.001)
print(count_basis(get_property("connected"), 5, host))
"""


def test_concurrent_join_writers(join_dir, monkeypatch):
    """Two processes that wait for each other, then count in the same
    directory at once: both save, and the file left behind is whole."""
    build_catalog(5, cache_dir=join_dir)
    for k in range(1, 6):
        elimination_orders(k, cache_dir=join_dir)
    src = Path(homcount.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    text = repr((JOIN_HOST.n, list(JOIN_HOST.edge_pairs())))
    procs = [subprocess.Popen([sys.executable, "-c", _JOIN_WRITER,
                               str(join_dir), str(i), text],
                              env=env, stdout=subprocess.PIPE, text=True)
             for i in range(2)]
    try:
        deadline = time.monotonic() + 60
        while not all((join_dir / f"ready-{i}").exists() for i in range(2)):
            assert all(p.poll() is None for p in procs)
            assert time.monotonic() < deadline
            time.sleep(0.005)
        (join_dir / "go").write_text("")
        outs = [p.communicate(timeout=60)[0].strip() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.communicate()
    assert [p.returncode for p in procs] == [0, 0]
    want = _join_brute()
    assert outs == [str(want)] * 2
    assert not [p.name for p in join_dir.iterdir() if p.name.startswith(".")]
    path = join_dir / JOIN_FILE
    table = homcount._read_joins(path)
    assert os.stat(path).st_mode & 0o777 == 0o600
    _new_process()
    compiles = _count_compiles(monkeypatch)
    assert _join_count() == want
    assert compiles == []
    assert homcount._join_codes().keys() == table.keys()
