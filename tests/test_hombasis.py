"""Tests for the homomorphism-basis expansion of induced-subgraph counts."""

import hashlib
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from indsub import hombasis
from indsub.catalog import build_catalog, edge_deletions
from indsub.counting import count_basis, count_brute
from indsub.errors import InternalConsistencyError
from indsub.graphs import HostGraph, SmallGraph, pair_table
from indsub.hombasis import (
    MAX_HOM_VECTOR_K,
    HomVector,
    h_tilde_vector,
    hom_vector,
    witness_dense_graph,
)
from indsub.homcount import count_hom
from indsub.properties import (
    BUILTIN_PROPERTIES,
    evaluate,
    get_property,
    truth_table_property,
)
from indsub.spectrum import f_vector, h_vector

from oracles import (
    brute_indsub_count,
    k_vertex_coefficient,
    labelled_hom_vector,
    random_host,
    reference_spanning_counts,
)


def test_no_edges_k2_coefficients_by_hand():
    # #IndSub(no-edges, 2, G) = C(n,2) - m
    #   = 1/2 Hom(E2) - 1/2 Hom(K1) - 1/2 Hom(K2).
    hv = hom_vector(get_property("no-edges"), 2)
    e2 = SmallGraph(2, 0)
    k1 = SmallGraph(1, 0)
    k2 = SmallGraph.complete(2)
    assert hv.coefficient(e2) == Fraction(1, 2)
    assert hv.coefficient(k1) == Fraction(-1, 2)
    assert hv.coefficient(k2) == Fraction(-1, 2)
    assert hv.support_size == 3


def test_connected_k3_coefficients_by_hand():
    # Derived by hand from the signed subset transform and the quotient
    # expansion: a(K2) = -1/2, a(P3) = +1/2, a(K3) = -1/3.
    hv = hom_vector(get_property("connected"), 3)
    k2 = SmallGraph.complete(2)
    p3 = SmallGraph.from_edges(3, [(0, 1), (1, 2)])
    k3 = SmallGraph.complete(3)
    assert hv.coefficient(k2) == Fraction(-1, 2)
    assert hv.coefficient(p3) == Fraction(1, 2)
    assert hv.coefficient(k3) == Fraction(-1, 3)
    assert hv.support_size == 3


def test_always_true_k2_coefficients_by_hand():
    # #IndSub(true, 2, G) = C(n,2) = 1/2 Hom(E2) - 1/2 Hom(K1).
    hv = hom_vector(get_property("true"), 2)
    assert hv.coefficient(SmallGraph(2, 0)) == Fraction(1, 2)
    assert hv.coefficient(SmallGraph(1, 0)) == Fraction(-1, 2)
    assert hv.support_size == 2


@pytest.mark.parametrize("prop_name", ["no-edges", "connected", "bipartite",
                                       "triangle-free", "edge-count-even"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_evaluation_identity_matches_brute_force(prop_name, k):
    # The defining identity: summing a(H) * Hom(H, G) over the support
    # reproduces the exact number of k-vertex induced subgraphs of G
    # satisfying the property.
    phi = get_property(prop_name)
    hv = hom_vector(phi, k)
    rng = random.Random(0xB0B0 + k)
    for _ in range(4):
        host = random_host(rng, rng.randint(k, 7), p=0.45)
        total = sum((c * count_hom(g, host) for g, c in hv.entries),
                    Fraction(0))
        assert total.denominator == 1
        assert int(total) == brute_indsub_count(phi, k, host)


def test_evaluation_identity_on_empty_and_tiny_hosts():
    phi = get_property("connected")
    hv = hom_vector(phi, 3)
    for host_n in (0, 1, 2):
        host = random_host(random.Random(host_n), host_n, p=0.5)
        total = sum((c * count_hom(g, host) for g, c in hv.entries),
                    Fraction(0))
        assert total == brute_indsub_count(phi, 3, host) == 0


@pytest.mark.parametrize("prop_name", sorted(BUILTIN_PROPERTIES))
def test_k_vertex_coefficient_agrees_with_full_vector(prop_name):
    # The direct alternating-extension formula for top-order coefficients
    # must agree with the entry produced by the full transform pipeline.
    phi = get_property(prop_name)
    for k in (4, 5):
        hv = hom_vector(phi, k)
        for g in build_catalog(k).graphs():
            assert k_vertex_coefficient(phi, g) == hv.coefficient(g)


@pytest.mark.parametrize("prop_name", sorted(BUILTIN_PROPERTIES))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_matches_labelled_reference(prop_name, k):
    phi = get_property(prop_name)
    assert hom_vector(phi, k) == labelled_hom_vector(phi, k)


@pytest.mark.parametrize("prop_name", ["connected", "triangle-free", "perfect"])
def test_matches_labelled_reference_k6(prop_name):
    phi = get_property(prop_name)
    assert hom_vector(phi, 6) == labelled_hom_vector(phi, 6)


def test_hom_vectors_are_bit_identical():
    # Pins every coefficient of the 11 built-ins at k = 1..6 and of
    # triangle-free at k = 7, in entry order, so that a rewrite of any step
    # of the pipeline must reproduce the same vectors.
    digest = hashlib.sha256()
    runs = [(name, k) for name in sorted(BUILTIN_PROPERTIES)
            for k in range(1, 7)] + [("triangle-free", 7)]
    for name, k in runs:
        for g, c in hom_vector(get_property(name), k).entries:
            digest.update(f"{name} {k} {g.to_graph6()} "
                          f"{c.numerator}/{c.denominator}\n".encode())
    assert digest.hexdigest() == \
        "8a8c959cb97db2c73b820b7e37c542f676d4683d3c72ffabdd3515dbc296e3ae"


@st.composite
def truth_tables_and_hosts(draw):
    k = draw(st.integers(1, 5))
    classes = build_catalog(k).class_count
    bits = "".join(draw(st.sampled_from("01")) for _ in range(classes))
    n = draw(st.integers(0, 9))
    pairs = [p for p in pair_table(n) if draw(st.booleans())]
    return k, bits, HostGraph.from_edges(n, pairs)


@given(truth_tables_and_hosts())
def test_truth_table_properties_match_reference_and_brute(case):
    # Truth tables give arbitrary, non-hereditary properties.
    k, bits, host = case
    phi = truth_table_property({k: bits})
    hv = hom_vector(phi, k)
    assert hv == labelled_hom_vector(phi, k)
    assert count_basis(phi, k, host) == count_brute(phi, k, host)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_spanning_subgraph_counts_closed_forms(k):
    # Every spanning subgraph satisfies "true": S_r(C) = C(e(C), r).
    # Only the edgeless one satisfies "no-edges": S_r(C) = [r = e(C)].
    edges = build_catalog(k).edges
    true_counts = hombasis._spanning_subgraph_counts(get_property("true"), k)
    empty_counts = hombasis._spanning_subgraph_counts(
        get_property("no-edges"), k)
    for bits, t, e in zip(edges, true_counts, empty_counts):
        m = bits.bit_count()
        assert t == [comb(m, r) for r in range(m + 1)]
        assert e == [int(r == m) for r in range(m + 1)]


@pytest.mark.parametrize("name", sorted(BUILTIN_PROPERTIES))
def test_spanning_subgraph_counts_match_subgraph_sweep(name):
    phi = get_property(name)
    for k in range(1, 6):
        assert hombasis._spanning_subgraph_counts(phi, k) == [
            reference_spanning_counts(phi, g)
            for g in build_catalog(k).graphs()]


def test_spanning_subgraph_division_must_be_exact(monkeypatch):
    # With each child class counted once per class instead of once per
    # deleted edge, P3 at k = 3 has 1 subgraph-edge pair missing 2 edges,
    # which 2 does not divide.
    once = tuple(tuple(dict.fromkeys(children))
                 for children in edge_deletions(3))
    monkeypatch.setattr(hombasis, "edge_deletions", lambda k: once)
    with pytest.raises(InternalConsistencyError):
        hombasis._spanning_subgraph_counts(get_property("true"), 3)


def test_k_vertex_coefficient_rejects_loops():
    g = SmallGraph(2, 0, loops=0b01)
    with pytest.raises(ValueError):
        k_vertex_coefficient(get_property("true"), g)


@pytest.mark.parametrize("prop_name", sorted(BUILTIN_PROPERTIES))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_h_tilde_scales_to_h_vector(prop_name, k):
    phi = get_property(prop_name)
    ht = h_tilde_vector(hom_vector(phi, k))
    h = h_vector(f_vector(phi, k))
    kfact = factorial(k)
    assert tuple(kfact * c for c in ht) == h


@pytest.mark.parametrize("prop_name", sorted(BUILTIN_PROPERTIES))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_entry_invariants(prop_name, k):
    hv = hom_vector(get_property(prop_name), k)
    kfact = factorial(k)
    keys = [(g.edge_count, g.to_graph6()) for g, _ in hv.entries]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for g, c in hv.entries:
        assert c != 0
        assert 1 <= g.n <= k
        assert not g.loops
        assert kfact % c.denominator == 0
    # the support lies among the classes on at most k vertices
    assert hv.support_size <= sum(build_catalog(j).class_count
                                  for j in range(1, k + 1))
    assert hv.k == k


def test_coefficient_sums_match_h_vector_aggregates():
    for prop_name in ("connected", "triangle-free", "split"):
        phi = get_property(prop_name)
        k = 4
        kv = hom_vector(phi, k).k_vertex_entries()
        h = h_vector(f_vector(phi, k))
        kfact = factorial(k)
        assert kfact * sum(c for _, c in kv) == sum(h)
        assert kfact * sum((-1) ** g.edge_count * c for g, c in kv) == \
            sum((-1) ** i * hi for i, hi in enumerate(h))


def test_k_vertex_sum_detects_complete_graph_membership():
    # k! times the k-vertex coefficient sum equals h_d = [phi(K_k)].
    k = 4
    kfact = factorial(k)
    for prop_name, expect in (("connected", 1), ("triangle-free", 0)):
        kv = hom_vector(get_property(prop_name), k).k_vertex_entries()
        assert kfact * sum(c for _, c in kv) == expect


@pytest.mark.parametrize("prop_name", sorted(BUILTIN_PROPERTIES))
def test_witness_dense_graph(prop_name):
    k = 4
    phi = get_property(prop_name)
    hv = hom_vector(phi, k)
    kv = hv.k_vertex_entries()
    witness = witness_dense_graph(hv)
    if not kv:
        assert witness is None
        return
    assert witness.n == k
    assert witness.edge_count == max(g.edge_count for g, _ in kv)
    assert hv.coefficient(witness) != 0


def test_witness_none_for_empty_k_vertex_support():
    # "no-edges" at k=2 keeps E2 in its support, so build a property with
    # empty top-order support instead: false everywhere.
    hv = hom_vector(get_property("false"), 3)
    assert hv.entries == ()
    assert witness_dense_graph(hv) is None


def test_k_vertex_entries_filter():
    hv = hom_vector(get_property("connected"), 3)
    kv = hv.k_vertex_entries()
    assert all(g.n == 3 for g, _ in kv)
    assert len(kv) == 2  # P3 and K3


def test_expected_support_bound_values():
    # Cumulative isomorphism-class counts: 1, 3, 7, 18, 52.
    assert [sum(build_catalog(j).class_count for j in range(1, k + 1))
            for k in range(1, 6)] == [1, 3, 7, 18, 52]


def test_coefficient_of_absent_pattern_is_zero():
    hv = hom_vector(get_property("connected"), 3)
    assert hv.coefficient(SmallGraph(3, 0)) == 0
    assert hv.coefficient(SmallGraph.complete(4)) == 0


def test_k_range_enforced():
    phi = get_property("true")
    with pytest.raises(ValueError):
        hom_vector(phi, 0)
    with pytest.raises(ValueError):
        hom_vector(phi, MAX_HOM_VECTOR_K + 1)


def test_full_support_when_h_vector_has_no_zeros():
    # "edge-count-even" alternates with edge parity, so every k-vertex
    # class carries a nonzero coefficient.
    k = 4
    hv = hom_vector(get_property("edge-count-even"), k)
    assert len(hv.k_vertex_entries()) == build_catalog(k).class_count
