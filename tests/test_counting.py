"""Tests for induced-subgraph counting: enumeration vs basis evaluation."""

import itertools
import random
import sys
from fractions import Fraction
from math import comb

import pytest

import indsub.counting as counting_module
import indsub.homcount as homcount
from indsub import catalog
from indsub.catalog import build_catalog
from indsub.counting import (
    DEFAULT_SUBSET_BUDGET,
    _class_decomposition,
    count_basis,
    count_brute,
    elimination_orders,
)
from indsub.errors import BudgetExceededError, InternalConsistencyError, PredicateError
from indsub.graphs import HostGraph, SmallGraph
from indsub.hombasis import HomVector, hom_vector
from indsub.homcount import (
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


def test_brute_evaluates_each_induced_labelled_graph_once_in_sweep_order():
    host = random_host(random.Random(62), 14, p=0.4)
    for k in (1, 3, 4, 5):
        seen = []
        phi = PropertySpec("edges", lambda g: seen.append(g) or g.edge_count % 2)
        sweep = [induced_small(host, subset)
                 for subset in itertools.combinations(range(host.n), k)]
        assert count_brute(phi, k, host) == \
            sum(g.edge_count % 2 for g in sweep)
        assert seen == list(dict.fromkeys(sweep)), k


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


def test_each_class_is_planned_once_per_host(monkeypatch):
    """A call plans only the patterns whose counts are not kept yet, so
    across properties each class is planned once per host."""
    planned = []
    plan = homcount._plan

    def recorded(pattern, td):
        planned.append(pattern)
        return plan(pattern, td)

    monkeypatch.setattr(homcount, "_plan", recorded)
    rng = random.Random(65)
    hosts = [random_host(rng, 10, p=0.4) for _ in range(2)]
    names = ("connected", "chordal", "split")
    for host in hosts:
        for name in names:
            phi = get_property(name)
            assert count_basis(phi, 5, host) == count_brute(phi, 5, host)
    classes = {g for name in names
               for g, _ in hom_vector(get_property(name), 5).entries}
    assert sorted(planned, key=repr) == sorted(2 * list(classes), key=repr)


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
