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
from math import comb
from pathlib import Path

import pytest

import indsub.counting as counting_module
import indsub.homcount as homcount
from indsub import catalog, cli
from indsub.catalog import MAX_HOM_VECTOR_K, build_catalog
from indsub.counting import DEFAULT_SUBSET_BUDGET, count_basis, count_brute
from indsub.errors import (
    BudgetExceededError,
    FormatError,
    InternalConsistencyError,
    PredicateError,
)
from indsub.graphs import HostGraph, SmallGraph
from indsub.hombasis import HomVector, hom_vector
from indsub.homcount import (
    PLAN_SUFFIX,
    count_hom,
    exact_treewidth,
    tree_decomposition,
)
from indsub.properties import BUILTIN_PROPERTIES, PropertySpec, get_property, invert

from oracles import (
    brute_indsub_count,
    edge_list_text,
    host_complement,
    host_disjoint_union,
    host_graph6,
    induced_small,
    random_host,
)


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
                    mismatches.append((edge_list_text(host), k, name, got, expected))
    assert not mismatches


def _negation(phi: PropertySpec) -> PropertySpec:
    pred = phi.predicate
    return PropertySpec(f"not-{phi.name}", lambda g: not pred(g))


def test_complement_and_negation_on_the_basis_at_n_40():
    """Two exact identities check count_basis on a host far past brute
    force, every built-in at k = 5 on one G(40, 1/2):
    #IndSub(Phi o complement, k, G) = #IndSub(Phi, k, complement of G),
    and #IndSub(Phi, k, G) + #IndSub(not Phi, k, G) = C(n, k).  The
    counts are host-major, so the hom counts kept for the last host serve
    every property on it."""
    k = 5
    host = random_host(random.Random(405), 40, 0.5)
    phis = [get_property(name) for name in sorted(BUILTIN_PROPERTIES)]
    counts = [count_basis(phi, k, host) for phi in phis]
    negated = [count_basis(_negation(phi), k, host) for phi in phis]
    inverted = [count_basis(invert(phi), k, host) for phi in phis]
    complement = host_complement(host)
    assert inverted == [count_basis(phi, k, complement) for phi in phis]
    assert [a + b for a, b in zip(counts, negated)] == \
        [comb(host.n, k)] * len(phis)


def test_disjoint_union_identities_on_the_basis():
    """Over the disjoint union G1 + G2 of sparse hosts of 60 and 70
    vertices, at k = 6: a connected set lies in one part, so connected
    counts add, and an independent set is one in each part, so
    #IS_6(G1 + G2) = sum over j of #IS_j(G1) * #IS_(6-j)(G2)."""
    k = 6
    rng = random.Random(6070)
    hosts = [random_host(rng, 60, 0.06), random_host(rng, 70, 0.06)]
    hosts.append(host_disjoint_union(*hosts))
    connected = get_property("connected")
    no_edges = get_property("no-edges")
    conn, ind = [], []
    for host in hosts:         # host-major, as above
        conn.append(count_basis(connected, k, host))
        ind.append([count_basis(no_edges, j, host) for j in range(k + 1)])
    assert conn[2] == conn[0] + conn[1]
    assert ind[2][k] == sum(ind[0][j] * ind[1][k - j] for j in range(k + 1))


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
                brute_indsub_count(phi, k, host), (host_graph6(host), k)


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
    planned = sum(len(tree_decomposition(g).bags)
                  for g, _ in hom_vector(phi, 5).entries)
    runs = _count_bag_tables(monkeypatch)
    assert count_basis(phi, 5, host) == count_brute(phi, 5, host)
    assert len(runs) < planned


def _class_plans_are_the_dp_ones(k, classes, directory, monkeypatch):
    """class_plans, in a directory whose plan files hold no class yet,
    gives each class the plan of its tree_decomposition, which is optimal
    on every component: the bags holding a component's vertices are as
    wide as that component's treewidth."""
    cat = build_catalog(k)
    graphs = [cat.graph(i) for i in classes]
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(directory))
    for g, plan in zip(graphs, counting_module.class_plans(graphs)):
        td = tree_decomposition(g)
        assert plan == homcount._plan(g, td)
        assert td.width == max(exact_treewidth(g), 0)
        for comp in g.components():
            width = max(len(bag) for bag in plan.bags if bag[0] in comp) - 1
            assert width == exact_treewidth(g.induced(comp)), \
                (g.to_graph6(), comp, plan.bags)


@pytest.mark.parametrize("k", range(1, 7))
def test_stored_orders_give_the_dp_decompositions(k, tmp_path, monkeypatch):
    _class_plans_are_the_dp_ones(
        k, range(build_catalog(k).class_count), tmp_path, monkeypatch)


def test_stored_orders_give_the_dp_decompositions_on_sampled_7_classes(
        tmp_path, monkeypatch):
    classes = random.Random(7).sample(range(build_catalog(7).class_count), 60)
    _class_plans_are_the_dp_ones(7, classes, tmp_path, monkeypatch)


def test_cold_count_runs_the_treewidth_dp_once_per_class(monkeypatch,
                                                         tmp_path):
    """In a directory whose plan files hold no class, a count runs the
    treewidth DP once for each class of its vector, disconnected ones
    included; a later process runs it only for the classes no plan file
    holds yet."""
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    phi = get_property("chordal")
    host = _petersen()
    runs = _count_planning(monkeypatch)["tree_decomposition"]
    assert count_basis(phi, 4, host) == count_brute(phi, 4, host)
    first = [g for g, _ in hom_vector(phi, 4).entries]
    assert sorted(runs, key=repr) == sorted(first, key=repr)
    _new_process()
    runs.clear()
    assert count_basis(phi, 5, host) == count_brute(phi, 5, host)
    entries = [g for g, _ in hom_vector(phi, 5).entries]
    assert any(not g.is_connected() for g in entries)
    new = [g for g in entries if g not in set(first)]
    assert len(new) < len(entries)
    assert sorted(runs, key=repr) == sorted(new, key=repr)


def test_warm_count_runs_no_treewidth_dp(monkeypatch, tmp_path):
    """Once a count has written the plans of its classes, disconnected
    ones included, a new process counts again with no treewidth DP."""
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
    phi = get_property("chordal")
    host = _petersen()
    want = count_brute(phi, 5, host)
    assert any(not g.is_connected() for g, _ in hom_vector(phi, 5).entries)
    assert count_basis(phi, 5, host) == want
    _new_process()

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


@pytest.mark.parametrize("name, k", [("connected", 5), ("split", 5),
                                     ("bipartite", 4)])
def test_count_basis_frees_each_table_after_its_last_read(monkeypatch, name, k):
    """homcount._run checked after every pattern it counts: each table it
    keeps still has a planned read.  The one count_homs call shares one
    kept dict and one reads dict, and every planned read was made, so
    nothing is left in either."""
    runs = []
    run = homcount._run

    def checked(plan, host, kept, reads):
        count = run(plan, host, kept, reads)
        assert all(reads.get(key, 0) > 0 for key in kept)
        runs.append((kept, reads))
        return count

    monkeypatch.setattr(homcount, "_run", checked)
    phi = get_property(name)
    host = random_host(random.Random(63), 12, p=0.4)
    assert count_basis(phi, k, host) == count_brute(phi, k, host)
    kept, reads = runs[0]
    assert len(runs) > 1
    assert all(r[0] is kept and r[1] is reads for r in runs)
    assert not kept and not reads


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


def test_each_class_is_planned_once_per_process(monkeypatch, tmp_path):
    """A plan depends on the pattern and its decomposition alone, so
    across hosts and properties each class is planned once: the second
    host counts every class again with the plans the first one made."""
    planned = []
    plan = homcount._plan

    def recorded(pattern, td):
        planned.append(pattern)
        return plan(pattern, td)

    monkeypatch.setattr(homcount, "_plan", recorded)
    # a directory of its own, whose plan files hold no class yet
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(tmp_path))
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
        assert count_brute(phi, k, host) + \
            count_brute(_negation(phi), k, host) == comb(7, k)


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


# ----------------------------------------------------------- plan files
#
# count_basis keeps the plan of each class it counts in the cache
# directory's plan file for the class's vertex count, code objects of the
# bag joins included.  Each case counts connected 5-subsets of one host,
# which plans 30 classes on 2 to 5 vertices, 21 of them on 5.

PLAN_HOST = random_host(random.Random(40), 9, p=0.5)


def _basis_count() -> int:
    return count_basis(get_property("connected"), 5, PLAN_HOST)


def _brute_count() -> int:
    return count_brute(get_property("connected"), 5, PLAN_HOST)


def _support_sizes(name: str, k: int) -> list[int]:
    """The vertex counts of the classes of name's vector at k: those of
    the plan files a count reads."""
    return sorted({g.n for g, _ in hom_vector(get_property(name), k).entries})


@pytest.fixture
def plan_dir(tmp_path, monkeypatch):
    """INDSUB_CACHE_DIR at a directory not made yet, where a count writes
    the catalogs and maps it reads beside the plan files."""
    directory = tmp_path / "cache"
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(directory))
    return directory


def _plan_path(directory: Path, m: int) -> Path:
    return directory / f"k{m}.{PLAN_SUFFIX}"


def _new_process() -> None:
    """Forget what a process keeps of its counts, plans and plan tables,
    as a new process starts (and as each test starts)."""
    counting_module._host_homs.cache_clear()
    homcount.plan_of.cache_clear()
    homcount._compiled.cache_clear()
    homcount.load_plans.cache_clear()


def _count_compiles(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(homcount, "compile", counted, raising=False)
    return calls


def _count_planning(monkeypatch) -> dict:
    """Lists that get one entry per call of each planning step a plan
    file spares: the sources compiled, the patterns _plan plans and the
    graphs tree_decomposition runs the treewidth DP on."""
    calls: dict = {"compile": _count_compiles(monkeypatch)}
    for module, name in ((homcount, "_plan"),
                         (homcount, "tree_decomposition")):
        def counted(g, *args, _step=getattr(module, name),
                    _calls=calls.setdefault(name, [])):
            _calls.append(g)
            return _step(g, *args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _write_plans(table, path: Path, inputs=None) -> None:
    """table written to path as a plan file, of inputs when given."""
    catalog._write_cache(table, path, inputs or homcount._planner_inputs(),
                         marshal.version)


def _stored(path: Path) -> dict:
    """The plans of the plan file at path, as marshal data."""
    return catalog._read_cache(path, homcount._planner_inputs())


def _read_plans(path: Path) -> dict:
    """The plan table of the plan file at path, or FormatError."""
    return homcount._checked_plans(_stored(path))


def test_warm_plan_file_compiles_no_join(plan_dir, tmp_path, capsys,
                                         monkeypatch):
    """A process whose plan files hold every class it counts plans none:
    it builds no decomposition, runs no _plan and compiles nothing, and
    writes no file."""
    host_file = tmp_path / "host.txt"
    host_file.write_text(edge_list_text(PLAN_HOST))
    argv = ["count", "--property", "connected", "--k", "5",
            "--graph", str(host_file), "--method", "basis"]
    calls = _count_planning(monkeypatch)
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert all(calls.values())
    paths = [_plan_path(plan_dir, m) for m in _support_sizes("connected", 5)]
    assert len(paths) == 4
    written = [os.stat(path) for path in paths]
    assert all(st.st_mode & 0o777 == 0o600 for st in written)
    # each file holds the plans of the classes on its vertex count
    planned = calls["_plan"]
    assert sorted(g.edges for g in planned if g.n == 5) == \
        sorted(_read_plans(paths[-1]))
    assert sum(len(_read_plans(path)) for path in paths) == \
        len(planned) == 30
    _new_process()
    for made in calls.values():
        made.clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert not any(calls.values())
    # nothing was planned, so no file was written again
    assert [os.stat(path).st_ino for path in paths] == \
        [st.st_ino for st in written]
    assert f'"count": "{_brute_count()}"' in first


# The sha256 of every class plan on at most MAX_HOM_VECTOR_K vertices, in
# catalog order, as _plan_texts writes them: the plans count_basis made
# when it planned each class on the decomposition of an elimination order
# kept beside the catalog, before the plan files replaced that order map.
CLASS_PLANS_SHA256 = \
    "76cd0999217772b9afcf989361722b4334c9e942a294b5d1aa0380152a9ee77f"


def _plan_texts(classes, plans):
    """Per class, the text of its plan: the class, the bags, children,
    roots, join orders, trie levels and keys, and each bag's join as the
    source of its shape with the child tables it reads and multiplies in.
    Each join must be the compiled source of its shape."""
    for g, plan in zip(classes, plans):
        rows = g.adj_rows()
        joins = []
        for b, (join, *rest) in enumerate(plan.joins):
            shape, slots, folded = homcount._shape(
                plan.orders[b], plan.levels[b], rows,
                [(c, plan.bags[c]) for c in plan.children[b]])
            assert join.__code__ == homcount._compiled(shape).__code__
            assert rest == [tuple(slots), tuple(folded)]
            joins.append((homcount._source(shape), *rest))
        yield repr((g.n, g.edges, plan.bags, plan.children, plan.roots,
                    plan.orders, plan.levels, plan.keys, joins))


@pytest.fixture(scope="module")
def planned_dir(tmp_path_factory):
    """A cache directory in which one process planned every class on at
    most MAX_HOM_VECTOR_K vertices, counting its planning steps: the
    directory, the classes, the steps' calls (_count_planning) and the
    plans.  Planning all 1,252 classes is the slowest step of the plan
    file tests, so the tests that read such a directory share one."""
    directory = tmp_path_factory.mktemp("planned") / "cache"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("INDSUB_CACHE_DIR", str(directory))
        _new_process()
        classes = [g for k in range(1, MAX_HOM_VECTOR_K + 1)
                   for g in build_catalog(k).graphs()]
        calls = _count_planning(mp)
        plans = counting_module.class_plans(classes)
    _new_process()
    return directory, classes, calls, plans


def test_plan_files_hold_every_class_plan(planned_dir, monkeypatch):
    """Every class count_basis may plan fits the plan files: after one
    process plans them all, a new one takes them all from the files, and
    plans and compiles nothing.  Every plan is the one pinned above."""
    directory, classes, calls, first = planned_dir
    assert len(calls["_plan"]) == len(classes) == 1252
    # the first process compiled each join once
    assert len(set(calls["compile"])) == len(calls["compile"]) == 594
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(directory))
    _new_process()
    calls = _count_planning(monkeypatch)
    again = counting_module.class_plans(classes)
    assert not any(calls.values())
    # the plans read back are the plans made, their joins the same code
    assert [plan[:5] + plan[6:] for plan in again] == \
        [plan[:5] + plan[6:] for plan in first]
    assert [[(join.__code__, *rest) for join, *rest in plan.joins]
            for plan in again] == \
        [[(join.__code__, *rest) for join, *rest in plan.joins]
         for plan in first]
    for m in range(1, MAX_HOM_VECTOR_K + 1):
        assert _read_plans(_plan_path(directory, m)).keys() == \
            set(build_catalog(m).edges)
    digest = hashlib.sha256()
    for text in _plan_texts(classes, first):
        digest.update(text.encode())
    assert digest.hexdigest() == CLASS_PLANS_SHA256


def _corrupt_plans(path: Path, how: str) -> str:
    """Spoil the plan file at path as how says; the words the logged
    rebuild names."""
    data = path.read_bytes()
    magic = catalog._CACHE_MAGIC
    head = len(magic) + 64
    if how == "truncated":
        path.write_bytes(data[:len(data) // 2])
        return "checksum mismatch"
    if how == "flipped byte":
        i = head + (len(data) - head) // 3
        path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
        return "checksum mismatch"
    if how == "wrong magic":
        path.write_bytes(bytes(b ^ 0xFF for b in magic) + data[len(magic):])
        return "bad magic number"
    if how == "not a dict":
        _write_plans(list(_stored(path).items()), path)
        return "not a table of plans"
    if how == "not code":
        # plans of the right shape whose joins hold bytes, not code
        _write_plans({
            edges: (*plan[:5], tuple((b"join", *rest) for _, *rest in plan[5]),
                    plan[6])
            for edges, plan in _stored(path).items()}, path)
        return "not a table of plans"
    assert how == "group-writable"
    path.chmod(0o664)
    return "not the user's own file, or writable by others"


@pytest.mark.parametrize("how", ["truncated", "flipped byte", "wrong magic",
                                 "not a dict", "not code", "group-writable"])
def test_bad_plan_file_is_ignored_logged_and_rebuilt(how, plan_dir, caplog,
                                                     monkeypatch):
    """A plan file that fails its checks is logged as a rebuild, none of
    its plans is used, and the count that plans its classes again
    rewrites it."""
    want = _brute_count()
    assert _basis_count() == want
    path = _plan_path(plan_dir, 5)
    good = _read_plans(path)
    rule = _corrupt_plans(path, how)
    with pytest.raises(FormatError, match=rule):
        _read_plans(path)
    _new_process()
    calls = _count_planning(monkeypatch)
    with caplog.at_level(logging.WARNING):
        assert _basis_count() == want
    assert any(r.getMessage() == f"rebuilding plans k=5: {path}: {rule}"
               for r in caplog.records)
    # nothing was read: every class on 5 vertices was planned, and the
    # file written anew; the other files were read
    assert sorted(g.edges for g in calls["_plan"]) == sorted(good)
    assert _read_plans(path).keys() == good.keys()
    assert os.stat(path).st_mode & 0o777 == 0o600


def test_plans_of_other_planning_code_are_never_used(plan_dir, caplog,
                                                     monkeypatch):
    """A plan file with a valid checksum whose inputs digest is not this
    code's is ignored without a warning, as a missing file is, however
    plausible its plans, and the count rewrites it with this code's
    digest."""
    want = _brute_count()
    assert _basis_count() == want
    path = _plan_path(plan_dir, 5)
    good = _stored(path)
    # the plans of another class, each under a key of this file, would
    # give a wrong count if they were used
    plans = list(good.values())
    _write_plans(dict(zip(good, plans[1:] + plans[:1])), path,
                 b"other planning code")
    with pytest.raises(FormatError, match="written from other inputs"):
        _read_plans(path)
    _new_process()
    calls = _count_planning(monkeypatch)
    with caplog.at_level(logging.WARNING):
        assert _basis_count() == want
    assert not any("plans" in r.getMessage() for r in caplog.records)
    assert sorted(g.edges for g in calls["_plan"]) == sorted(good)
    head = len(catalog._CACHE_MAGIC)
    assert path.read_bytes()[head:head + 32] == \
        hashlib.sha256(homcount._planner_inputs()).digest()
    assert _read_plans(path).keys() == good.keys()


@pytest.mark.parametrize("blocked", ["by a directory", "below a file"])
def test_plan_save_failure_is_logged(blocked, plan_dir, caplog):
    """The plan file cannot be written: its name is taken by a directory,
    or the cache directory lies below a regular file.  The count is
    still made, and the failed read and write are logged."""
    path = _plan_path(plan_dir, 5)
    if blocked == "by a directory":
        (path / "blocker").mkdir(parents=True)
    else:
        plan_dir.parent.mkdir(exist_ok=True)
        plan_dir.write_text("")
    with caplog.at_level(logging.WARNING):
        assert _basis_count() == _brute_count()
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("rebuilding plans k=5: ") for m in messages)
    assert any(m.startswith(f"could not write plans {path}: ")
               for m in messages)
    if blocked == "by a directory":
        # the plan path is still the blocking directory, and no
        # temporary file is left beside it
        assert [p.name for p in path.iterdir()] == ["blocker"]
        assert not [p.name for p in plan_dir.iterdir()
                    if p.name.startswith(".")]


def test_plan_file_holds_only_its_catalogs_classes(plan_dir):
    """Counts at several k, disconnected patterns among their classes,
    put each plan in the file of its pattern's vertex count, keyed by its
    class's canonical edge bitset, and no file holds any other key."""
    host = random_host(random.Random(41), 9, p=0.4)
    for name, k in (("connected", 5), ("chordal", 4), ("triangle-free", 5),
                    ("no-edges", 3)):
        phi = get_property(name)
        assert count_basis(phi, k, host) == count_brute(phi, k, host)
    held = {m: _read_plans(_plan_path(plan_dir, m))
            for m in range(1, 6)}
    assert all(held.values())
    assert not list(plan_dir.glob(f"k[67].{PLAN_SUFFIX}"))
    for m, plans in held.items():
        assert plans.keys() <= set(build_catalog(m).edges)
        for edges, plan in plans.items():
            # a plan's bags cover exactly the m vertices of its class,
            # and it is the plan of that class's tree_decomposition
            g = SmallGraph(m, edges)
            assert {v for bag in plan.bags for v in bag} == set(range(m))
            assert plan == homcount.plan_of(g)._replace(joins=plan.joins)


def test_count_at_k4_reads_no_larger_plan_file(planned_dir, tmp_path, capsys,
                                               monkeypatch):
    """In a directory whose plan files hold every class up to k = 7, a
    count at k = 4 opens the plan files of at most 4 vertices only."""
    directory = planned_dir[0]
    monkeypatch.setenv("INDSUB_CACHE_DIR", str(directory))
    assert len(list(directory.glob(f"k*.{PLAN_SUFFIX}"))) == 7
    host_file = tmp_path / "host.txt"
    host_file.write_text(edge_list_text(PLAN_HOST))
    _new_process()
    capsys.readouterr()
    opened = []

    def recorded(path, *args, **kwargs):
        opened.append(Path(path).name)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(catalog, "open", recorded, raising=False)
    calls = _count_planning(monkeypatch)
    assert cli.main(["count", "--property", "connected", "--k", "4",
                     "--graph", str(host_file), "--method", "basis"]) == 0
    want = count_brute(get_property("connected"), 4, PLAN_HOST)
    assert f'"count": "{want}"' in capsys.readouterr().out
    assert not any(calls.values())
    assert sorted(name for name in opened if name.endswith(PLAN_SUFFIX)) \
        == [f"k{m}.{PLAN_SUFFIX}" for m in _support_sizes("connected", 4)]


_PLAN_WRITER = """
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


def test_concurrent_plan_writers(plan_dir, monkeypatch):
    """Two processes that wait for each other, then count in the same
    directory at once: both save, and the files left behind are whole."""
    build_catalog(5)
    src = Path(homcount.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    text = repr((PLAN_HOST.n, list(PLAN_HOST.edge_pairs())))
    procs = [subprocess.Popen([sys.executable, "-c", _PLAN_WRITER,
                               str(plan_dir), str(i), text],
                              env=env, stdout=subprocess.PIPE, text=True)
             for i in range(2)]
    try:
        deadline = time.monotonic() + 60
        while not all((plan_dir / f"ready-{i}").exists() for i in range(2)):
            assert all(p.poll() is None for p in procs)
            assert time.monotonic() < deadline
            time.sleep(0.005)
        (plan_dir / "go").write_text("")
        outs = [p.communicate(timeout=60)[0].strip() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.communicate()
    assert [p.returncode for p in procs] == [0, 0]
    want = _brute_count()
    assert outs == [str(want)] * 2
    assert not [p.name for p in plan_dir.iterdir() if p.name.startswith(".")]
    for m in _support_sizes("connected", 5):
        path = _plan_path(plan_dir, m)
        assert _read_plans(path)
        assert os.stat(path).st_mode & 0o777 == 0o600
    _new_process()
    calls = _count_planning(monkeypatch)
    assert _basis_count() == want
    assert not any(calls.values())
