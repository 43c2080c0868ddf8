import itertools
from math import factorial

import pytest

from indsub.catalog import build_catalog
from indsub.graphs import SmallGraph
from indsub.partitions import (
    MAX_PARTITION_N,
    VertexPartition,
    independent_partitions_with_moebius,
    moebius_from_discrete,
    quotient,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def brute_partitions(n):
    """All set partitions of range(n) grown element by element."""
    parts = [[]]
    for x in range(n):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([b | {x} if j == i else b
                            for j, b in enumerate(p)])
            nxt.append(p + [{x}])
        parts = nxt
    return {frozenset(frozenset(b) for b in p) for p in parts}


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_enumeration_matches_brute(n):
    # The edgeless graph's partitions into independent sets are all of them.
    seen = set()
    for part, _ in independent_partitions_with_moebius(SmallGraph(n, 0)):
        key = frozenset(frozenset(b) for b in part.blocks)
        assert key not in seen
        seen.add(key)
        assert sorted(v for b in part.blocks for v in b) == list(range(n))
    assert len(seen) == BELL[n]
    assert seen == brute_partitions(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_moebius_weights(n):
    for part, mu in independent_partitions_with_moebius(SmallGraph(n, 0)):
        expected = 1
        for block in part.blocks:
            sign = -1 if (len(block) - 1) % 2 else 1
            expected *= sign * factorial(len(block) - 1)
        assert mu == expected == moebius_from_discrete(part)


def test_moebius_sums_to_zero_above_discrete():
    # Sum over the whole lattice of mu(discrete, rho) is zero for n >= 2:
    # the defining recurrence telescopes.
    for n in range(2, 7):
        assert sum(mu for _, mu in
                   independent_partitions_with_moebius(SmallGraph(n, 0))) == 0


@pytest.mark.parametrize("k", range(1, 7))
def test_independent_partitions_are_the_loop_free_quotients(k):
    everything = independent_partitions_with_moebius(SmallGraph(k, 0))
    for entry in build_catalog(k).entries:
        g = entry.graph
        expected = [(p, mu) for p, mu in everything
                    if not quotient(g, p).loops]
        assert list(independent_partitions_with_moebius(g)) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_independent_partitions_edge_cases(n):
    discrete = VertexPartition(tuple((v,) for v in range(n)))
    assert independent_partitions_with_moebius(SmallGraph.complete(n)) == \
        ((discrete, 1),)
    assert len(independent_partitions_with_moebius(SmallGraph(n, 0))) == BELL[n]
    assert independent_partitions_with_moebius(SmallGraph(n, 0, loops=1)) == ()


def test_discrete_partition():
    p = VertexPartition(tuple((v,) for v in range(4)))
    assert p.blocks == ((0,), (1,), (2,), (3,))
    assert moebius_from_discrete(p) == 1


def test_partition_cap():
    with pytest.raises(ValueError):
        independent_partitions_with_moebius(SmallGraph(MAX_PARTITION_N + 1))


def test_quotient_discrete_is_identity():
    g = SmallGraph.cycle(5)
    q = quotient(g, VertexPartition(tuple((v,) for v in range(5))))
    assert q == g


def test_quotient_merging_cycle_endpoints():
    # C4 with two opposite vertices merged becomes a path with a doubled
    # edge collapsed: vertices {0,2},{1},{3}; edges (01),(12),(23),(30)
    # project to block edges; no block has an internal edge.
    g = SmallGraph.cycle(4)
    part = next(p for p, _ in independent_partitions_with_moebius(
                    SmallGraph(4, 0))
                if sorted(map(sorted, p.blocks)) == [[0, 2], [1], [3]])
    q = quotient(g, part)
    assert q.n == 3 and q.loops == 0
    assert q.edge_count == 2


def test_quotient_adjacent_merge_creates_loop():
    g = SmallGraph.complete(3)
    part = next(p for p, _ in independent_partitions_with_moebius(
                    SmallGraph(3, 0))
                if sorted(map(sorted, p.blocks)) == [[0, 1], [2]])
    q = quotient(g, part)
    assert q.n == 2
    assert q.loops != 0


def test_quotient_respects_block_min_order():
    g = SmallGraph.from_edges(4, [(0, 3), (1, 2)])
    part = next(p for p, _ in independent_partitions_with_moebius(
                    SmallGraph(4, 0))
                if sorted(map(sorted, p.blocks)) == [[0, 3], [1, 2]])
    q = quotient(g, part)
    # blocks ordered by smallest member: {0,3} then {1,2}; both carry a loop
    assert q.n == 2 and q.loops == 0b11


def test_hom_expansion_identity_via_quotients():
    """Injective maps from g into a host equal the Moebius-weighted sum of
    homomorphisms from the quotients; checked by brute enumeration."""
    host_small = SmallGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    adj = host_small.adj_rows()

    def count_maps(pattern, injective):
        total = 0
        for image in itertools.product(range(4), repeat=pattern.n):
            if injective and len(set(image)) != pattern.n:
                continue
            good = all(adj[image[a]] >> image[b] & 1
                       for a, b in pattern.edge_pairs())
            if good and pattern.loops == 0:
                total += good
        return total

    for pattern in (SmallGraph.path(3), SmallGraph.cycle(3),
                    SmallGraph.from_edges(4, [(0, 1), (2, 3)])):
        injective = count_maps(pattern, True)
        expansion = 0
        for part, mu in independent_partitions_with_moebius(
                SmallGraph(pattern.n, 0)):
            q = quotient(pattern, part)
            if q.loops:
                continue  # no homomorphisms into a loop-free host
            expansion += mu * count_maps(q, False)
        assert expansion == injective
