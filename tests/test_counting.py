"""Tests for induced-subgraph counting: enumeration vs basis evaluation."""

import random
from fractions import Fraction
from math import comb

import pytest

import indsub.counting as counting_module
import indsub.homcount as homcount
from indsub.counting import DEFAULT_SUBSET_BUDGET, count_basis, count_brute
from indsub.errors import BudgetExceededError, InternalConsistencyError, PredicateError
from indsub.graphs import HostGraph, SmallGraph
from indsub.hombasis import HomVector, hom_vector
from indsub.homcount import tree_decomposition
from indsub.properties import BUILTIN_PROPERTIES, PropertySpec, get_property, invert

from oracles import brute_indsub_count, host_complement, random_host


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


def test_count_basis_shares_sub_pattern_tables(monkeypatch):
    """Fewer bags run the hom DP than the plan holds: a bag whose rooted
    sub-pattern another bag of the call has computed takes that table."""
    phi = get_property("connected")
    host = _petersen()
    patterns = {comp for g, _ in hom_vector(phi, 5).entries
                for comp in homcount._components(g)}
    planned = sum(len(tree_decomposition(g).bags) for g in patterns)
    runs = []
    bag_table = homcount._bag_table

    def counted(*args):
        runs.append(args)
        return bag_table(*args)

    monkeypatch.setattr(homcount, "_bag_table", counted)
    assert count_basis(phi, 5, host) == count_brute(phi, 5, host)
    assert len(runs) < planned


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


def test_count_basis_accepts_prebuilt_vector_and_cache():
    phi = get_property("bipartite")
    k = 4
    rng = random.Random(21)
    host = random_host(rng, 8, p=0.4)
    cache: dict = {}
    first = count_basis(phi, k, host, hom_cache=cache)
    assert first == count_brute(phi, k, host)
    # one count per pattern, keyed by the entry's canonical representative
    assert set(cache) == {g for g, _ in hom_vector(phi, k).entries}
    before = dict(cache)
    again = count_basis(phi, k, host, hom_cache=cache)
    assert again == first
    assert cache == before  # second run only reads


def test_count_basis_flags_non_integral_total(monkeypatch):
    # Hand a vector whose evaluation cannot be an integer count.
    bogus = HomVector("bogus", 2,
                      ((SmallGraph(1, 0), Fraction(1, 3)),))
    monkeypatch.setattr(counting_module, "hom_vector", lambda phi, k: bogus)
    host = random_host(random.Random(5), 4, p=0.5)
    with pytest.raises(InternalConsistencyError):
        count_basis(get_property("true"), 2, host)


def test_count_basis_flags_negative_total(monkeypatch):
    bogus = HomVector("bogus", 2,
                      ((SmallGraph(1, 0), Fraction(-1)),))
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
