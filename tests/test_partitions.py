"""The partition lattice behind the quotient expansion, and the block-mask
enumerator of hombasis, through the quotient rows it serves by catalog
index, checked against it."""

import itertools
import random
from math import factorial

import pytest

from indsub.canon import canon_key
from indsub.catalog import build_catalog
from indsub.graphs import SmallGraph
from indsub.hombasis import quotient_rows

from oracles import (
    partition_moebius,
    quotient,
    reference_quotient_row,
    set_partitions,
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


def signed_stirling_first(n, m):
    """s(n, m): the coefficient of x^m in x(x-1)...(x-n+1)."""
    poly = [1]
    for i in range(n):
        poly = [(poly[j - 1] if j else 0) - i * (poly[j] if j < len(poly) else 0)
                for j in range(len(poly) + 1)]
    return poly[m]


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_enumeration_matches_brute(n):
    seen = set()
    for blocks in set_partitions(n):
        key = frozenset(frozenset(b) for b in blocks)
        assert key not in seen
        seen.add(key)
        assert sorted(v for b in blocks for v in b) == list(range(n))
        assert [min(b) for b in blocks] == sorted(min(b) for b in blocks)
    assert len(seen) == BELL[n]
    assert seen == brute_partitions(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_moebius_weights(n):
    for blocks in set_partitions(n):
        expected = 1
        for block in blocks:
            sign = -1 if (len(block) - 1) % 2 else 1
            expected *= sign * factorial(len(block) - 1)
        assert partition_moebius(blocks) == expected


def test_moebius_sums_to_zero_above_discrete():
    # Sum over the whole lattice of mu(discrete, rho) is zero for n >= 2:
    # the defining recurrence telescopes.
    for n in range(2, 7):
        assert sum(map(partition_moebius, set_partitions(n))) == 0


def _named(k, row):
    """A quotient row's (global class id, mu) pairs with each id replaced
    by its catalog representative's canonical key."""
    reps = [g for m in range(1, k + 1) for g in build_catalog(m).graphs()]
    pairs = iter(row)
    return tuple((canon_key(reps[gid]), mu) for gid, mu in zip(pairs, pairs))


@pytest.mark.parametrize("k", range(1, 7))
def test_independent_partitions_are_the_loop_free_quotients(k):
    # The block-mask enumerator visits exactly the partitions with no edge
    # inside a block, in the order of the sweep over all of them.
    rows = quotient_rows(k)
    for g, row in zip(build_catalog(k).graphs(), rows, strict=True):
        assert _named(k, row) == reference_quotient_row(g)


def test_quotient_rows_match_reference_on_sampled_k7_classes():
    cat = build_catalog(7)
    rows = quotient_rows(7)
    for i in random.Random(7).sample(range(cat.class_count), 60):
        assert _named(7, rows[i]) == reference_quotient_row(cat.graph(i))


@pytest.mark.parametrize("n", range(1, 8))
def test_independent_partitions_edge_cases(n):
    # K_n admits only the discrete partition.  Every partition of the
    # edgeless graph is independent; those with m blocks give the edgeless
    # quotient on m vertices and their mu sum to s(n, m).
    cat, rows = build_catalog(n), quotient_rows(n)
    complete = SmallGraph.complete(n)
    assert _named(n, rows[cat.index_of(complete)]) == \
        ((canon_key(complete), 1),)
    assert _named(n, rows[cat.index_of(SmallGraph(n, 0))]) == tuple(
        (canon_key(SmallGraph(m, 0)), signed_stirling_first(n, m))
        for m in range(1, n + 1))


def test_discrete_partition():
    blocks = tuple((v,) for v in range(4))
    assert set_partitions(4)[-1] == blocks
    assert partition_moebius(blocks) == 1


def test_quotient_discrete_is_identity():
    g = SmallGraph.cycle(5)
    assert quotient(g, tuple((v,) for v in range(5))) == g


def test_quotient_merging_cycle_endpoints():
    # C4 with two opposite vertices merged: blocks {0,2},{1},{3}; the four
    # edges project onto two block pairs and no block has an internal edge.
    q = quotient(SmallGraph.cycle(4), ((0, 2), (1,), (3,)))
    assert q.n == 3
    assert q.edge_count == 2


def test_quotient_adjacent_merge_is_dropped():
    # the merged block holds an edge, so the quotient would have a loop
    assert quotient(SmallGraph.complete(3), ((0, 1), (2,))) is None
    assert quotient(SmallGraph.path(3), ((0, 1, 2),)) is None


def test_quotient_respects_block_min_order():
    g = SmallGraph.from_edges(4, [(0, 1)])
    q = quotient(g, ((2,), (1, 3), (0,)))
    # blocks ordered by smallest member: {0}, {1,3}, {2}
    assert q == SmallGraph.from_edges(3, [(0, 1)])


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
            total += good
        return total

    for pattern in (SmallGraph.path(3), SmallGraph.cycle(3),
                    SmallGraph.from_edges(4, [(0, 1), (2, 3)])):
        injective = count_maps(pattern, True)
        expansion = 0
        for blocks in set_partitions(pattern.n):
            q = quotient(pattern, blocks)
            if q is None:
                continue  # a loop has no homomorphism into a simple host
            expansion += partition_moebius(blocks) * count_maps(q, False)
        assert expansion == injective
