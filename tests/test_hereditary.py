"""Tests for the hereditary critical-edge machinery: edge explosions, twin
partitions, singleton certificates, bounded grid checks, and the reduction
from independent-set counting."""

import random
from math import comb

import pytest

from indsub.canon import is_isomorphic
from indsub.catalog import build_catalog
from indsub.errors import InternalConsistencyError
from indsub.graphs import MAX_SMALL_VERTICES, HostGraph, SmallGraph
from indsub.hereditary import (
    DEFAULT_CRITICAL_BOUND,
    CriticalCheckResult,
    ExplosionSpec,
    bipartition_of,
    bounded_critical_check,
    build_reduction_instance,
    count_independent_sets_via_reduction,
    explode,
    singleton_critical_edge,
    twin_partition,
)
import indsub.hereditary as hereditary_module
from indsub.properties import (
    evaluate,
    forbidden_induced_property,
    get_property,
)

from oracles import (
    brute_independent_set_count,
    induced_small,
    random_bipartite_host,
    random_small_graph,
)


C4 = SmallGraph.cycle(4)
C5 = SmallGraph.cycle(5)
P3 = SmallGraph.from_edges(3, [(0, 1), (1, 2)])
TWO_K2 = SmallGraph.from_edges(4, [(0, 1), (2, 3)])


def test_explosion_spec_validation():
    with pytest.raises(ValueError):
        ExplosionSpec(C4, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        ExplosionSpec(C4, 0, 4, 1, 1)
    with pytest.raises(ValueError):
        ExplosionSpec(C4, 0, 1, -1, 1)
    assert ExplosionSpec(C4, 0, 1, 2, 3).result_size == 7


def test_explode_requires_an_edge():
    with pytest.raises(ValueError):
        explode(ExplosionSpec(C4, 0, 2, 1, 1))  # diagonal of the 4-cycle


def test_explode_size_cap():
    big = MAX_SMALL_VERTICES
    with pytest.raises(ValueError):
        explode(ExplosionSpec(SmallGraph.complete(2), 0, 1, big, 1))


def test_explode_identity_counts_give_edge_deletion():
    # x = y = 1 keeps one copy of each endpoint: the graph minus the edge.
    g = explode(ExplosionSpec(C5, 0, 1, 1, 1))
    path5 = SmallGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert is_isomorphic(g, path5)


def test_explode_zero_count_deletes_endpoint():
    g = explode(ExplosionSpec(C5, 0, 1, 0, 1))
    path4 = SmallGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert is_isomorphic(g, path4)
    assert explode(ExplosionSpec(SmallGraph.complete(2), 0, 1, 0, 0)).n == 0


def test_explode_triangle_to_star():
    # Cloning both endpoints of a triangle edge fans the apex out.
    g = explode(ExplosionSpec(SmallGraph.complete(3), 0, 1, 2, 2))
    star = SmallGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert is_isomorphic(g, star)


def test_explode_clones_are_independent_and_share_neighbors():
    rng = random.Random(0xE1)
    for _ in range(20):
        base = random_small_graph(rng, rng.randint(2, 6))
        if not base.edge_count:
            continue
        u, v = base.edge_pairs()[0]
        x, y = rng.randint(0, 3), rng.randint(0, 3)
        g = explode(ExplosionSpec(base, u, v, x, y))
        r = base.n - 2
        u_clones = range(r, r + x)
        v_clones = range(r + x, r + x + y)
        for clones in (u_clones, v_clones):
            rows = {g.adj_rows()[c] for c in clones}
            assert len(rows) <= 1  # all copies share one neighborhood
        for a in u_clones:
            for b in v_clones:
                assert not g.has_edge(a, b)  # the exploded edge is gone


def test_twin_partition_known_blocks():
    tp = twin_partition(C4)
    assert tp.blocks == ((0, 2), (1, 3))
    assert is_isomorphic(tp.collapsed, SmallGraph.complete(2))
    assert tp.singleton_vertices() == frozenset()

    empty3 = SmallGraph(3, 0)
    tp = twin_partition(empty3)
    assert tp.blocks == ((0, 1, 2),)
    assert tp.collapsed.n == 1

    p4 = SmallGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    tp = twin_partition(p4)
    assert all(len(b) == 1 for b in tp.blocks)
    assert tp.singleton_vertices() == frozenset(range(4))
    assert is_isomorphic(tp.collapsed, p4)


def test_twin_partition_rejects_loops():
    with pytest.raises(ValueError):
        twin_partition(SmallGraph(2, 0, loops=0b01))


def test_twin_partition_invariants_random():
    rng = random.Random(0xE2)
    for _ in range(30):
        g = random_small_graph(rng, rng.randint(1, 7))
        tp = twin_partition(g)
        covered = sorted(v for b in tp.blocks for v in b)
        assert covered == list(range(g.n))
        rows = g.adj_rows()
        for b in tp.blocks:
            assert len({rows[v] for v in b}) == 1
        # collapsing is idempotent: the collapsed graph has no twins left
        again = twin_partition(tp.collapsed)
        assert all(len(b) == 1 for b in again.blocks)


def test_singleton_critical_edge_small_cases():
    with pytest.raises(ValueError):
        singleton_critical_edge(SmallGraph(1, 0))

    cert = singleton_critical_edge(SmallGraph.complete(2))
    assert not cert.in_complement and cert.edge == (0, 1)

    cert = singleton_critical_edge(SmallGraph(2, 0))
    assert cert.in_complement
    assert cert.graph == SmallGraph.complete(2)

    cert = singleton_critical_edge(C5)
    assert not cert.in_complement
    assert cert.confidence == "proven"
    assert C5.has_edge(*cert.edge)

    # C4 is all twins, so the certificate lives in the complement (2K2).
    cert = singleton_critical_edge(C4)
    assert cert.in_complement
    assert is_isomorphic(cert.graph, TWO_K2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_singleton_critical_edge_exists_everywhere(n):
    # The twin-partition argument promises a singleton-singleton edge in
    # the graph or its complement for every graph with >= 2 vertices.
    for g in build_catalog(n).graphs():
        cert = singleton_critical_edge(g)
        side = g.complement() if cert.in_complement else g
        assert cert.graph == side
        a, b = cert.edge
        assert side.has_edge(a, b)
        singles = twin_partition(side).singleton_vertices()
        assert a in singles and b in singles
        assert cert.confidence == "proven"


def test_bounded_critical_check_worked_examples():
    # Explosions of a 5-cycle edge are trees plus clone leaves: perfect.
    res = bounded_critical_check(get_property("perfect"), C5, (0, 1), bound=3)
    assert res.status == "consistent" and not res.refuted
    assert res.checked == 16
    # Explosions of a 4-cycle edge are acyclic: chordal.
    res = bounded_critical_check(get_property("chordal"), C4, (0, 1), bound=3)
    assert res.status == "consistent"
    # Explosions of one edge of 2K2 are an edge plus isolated vertices: split.
    res = bounded_critical_check(get_property("split"), TWO_K2, (0, 1), bound=3)
    assert res.status == "consistent"


def test_bounded_critical_check_default_bound():
    res = bounded_critical_check(get_property("perfect"), C5, (0, 1))
    assert res.bound == DEFAULT_CRITICAL_BOUND
    assert res.checked == (DEFAULT_CRITICAL_BOUND + 1) ** 2


def test_bounded_critical_check_rejects_negative_bound():
    # An empty grid would report "consistent" with nothing checked.
    with pytest.raises(ValueError):
        bounded_critical_check(get_property("perfect"), C5, (0, 1), bound=-1)
    res = bounded_critical_check(get_property("perfect"), C5, (0, 1), bound=0)
    assert res.status == "consistent" and res.checked == 1


def test_bounded_critical_check_refutes_non_critical_edge():
    # For the path-free property, a center edge of the path is not
    # critical: cloning the far endpoint recreates an induced path.
    phi = forbidden_induced_property((P3,), name="p3-free")
    res = bounded_critical_check(phi, P3, (0, 1), bound=3)
    assert res.refuted
    assert res.witness == (0, 2)
    assert res.checked == 3
    # The singleton certificate picks the complement side instead.
    cert = singleton_critical_edge(P3)
    assert cert.in_complement


def test_bipartition_of():
    host = HostGraph.from_small(C4)
    assert bipartition_of(host) == ((0, 2), (1, 3))
    assert bipartition_of(HostGraph.from_small(SmallGraph.complete(3))) is None
    assert bipartition_of(HostGraph.from_edges(0, [])) == ((), ())
    # Disconnected: two disjoint edges, colors seeded per component.
    host = HostGraph.from_edges(4, [(0, 1), (2, 3)])
    assert bipartition_of(host) == ((0, 2), (1, 3))


def test_build_reduction_instance_structure():
    host = HostGraph.from_edges(3, [(0, 1), (0, 2)])  # star, center 0
    parts = ((0,), (1, 2))
    inst = build_reduction_instance(host, parts, C5, (0, 1))
    r = 3
    assert inst.r == r
    assert inst.ghat.n == host.n + r
    assert inst.z_indices == (0, 1, 2)
    assert inst.u_indices == (3,) and inst.v_indices == (4, 5)
    # Distinguished block: the forbidden graph minus the exploded edge's
    # endpoints (a path 2-3-4 in C5's labeling, positions 0-1-2 here).
    assert induced_small(inst.ghat, inst.z_indices).edge_count == 2
    # Host edges run between the two clone sides.
    assert sorted((min(a, b), max(a, b)) for a, b in [(3, 4), (3, 5)]) == \
        [(3, 4), (3, 5)]
    for a, b in [(3, 4), (3, 5)]:
        assert b in inst.ghat.neighbors[a]
    # Clone sides stay independent on each side.
    assert 5 not in inst.ghat.neighbors[4]


def test_build_reduction_instance_validation():
    host = HostGraph.from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        build_reduction_instance(host, ((0,), (1,)), C5, (0, 1))  # not a partition
    with pytest.raises(ValueError):
        build_reduction_instance(host, ((0, 1), (2,)), C5, (0, 1))  # edge inside part
    with pytest.raises(ValueError):
        build_reduction_instance(host, ((0,), (1, 2)), C5, (0, 2))  # non-edge
    with pytest.raises(ValueError):
        build_reduction_instance(host, ((), (0, 1, 2)), C5, (0, 1))


EXAMPLES = [
    ("perfect", C5, (0, 1)),
    ("chordal", C4, (0, 1)),
    ("split", TWO_K2, (0, 1)),
]


@pytest.mark.parametrize("prop_name,h,edge", EXAMPLES)
def test_reduction_counts_independent_sets(prop_name, h, edge):
    phi = get_property(prop_name)
    rng = random.Random(hash((prop_name, 77)) & 0xFFFF)
    for _ in range(3):
        host = random_bipartite_host(rng, rng.randint(1, 4),
                                     rng.randint(1, 4), p=0.6)
        parts = bipartition_of(host)
        # random_bipartite_host colors sides 0..left-1 and left..n-1, but
        # stray isolated vertices may land on either side of the 2-coloring;
        # the instance only needs *some* valid bipartition.
        assert parts is not None
        for k in range(0, 4):
            got = count_independent_sets_via_reduction(
                host, parts, k, phi, h, edge)
            assert got == brute_independent_set_count(host, k)


def test_reduction_with_basis_method():
    phi = get_property("split")
    host = random_bipartite_host(random.Random(5), 3, 3, p=0.5)
    parts = bipartition_of(host)
    got = count_independent_sets_via_reduction(
        host, parts, 3, phi, TWO_K2, (0, 1), method="basis")
    assert got == brute_independent_set_count(host, 3)


def test_reduction_rejects_unknown_method():
    host = HostGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        count_independent_sets_via_reduction(
            host, ((0,), (1,)), 1, get_property("chordal"), C4, (0, 1),
            method="sideways")


def test_reduction_edge_cases():
    phi = get_property("chordal")
    edgeless = HostGraph.from_edges(3, [])
    assert count_independent_sets_via_reduction(
        edgeless, ((0, 1, 2), ()), 2, phi, C4, (0, 1)) == 3
    with pytest.raises(ValueError):
        count_independent_sets_via_reduction(
            HostGraph.from_edges(2, [(0, 1)]), ((0, 1), ()), 1, phi, C4, (0, 1))
    with pytest.raises(ValueError):
        count_independent_sets_via_reduction(
            edgeless, ((0, 1, 2), ()), -1, phi, C4, (0, 1))


def test_reduction_negative_total_guard(monkeypatch):
    # Force the per-term counter to produce an impossible alternating sum;
    # the reduction must refuse to return a negative "count".
    calls = {"n": 0}

    def rigged(phi, k, host, *, budget):
        calls["n"] += 1
        # calls 2 and 3 are the single-deletion terms, which enter the
        # alternating sum with a minus sign
        return 100 if calls["n"] in (2, 3) else 0

    monkeypatch.setattr(hereditary_module, "count_brute", rigged)
    host = HostGraph.from_edges(2, [(0, 1)])
    with pytest.raises(InternalConsistencyError):
        count_independent_sets_via_reduction(
            host, ((0,), (1,)), 1, get_property("chordal"), C4, (0, 1))
