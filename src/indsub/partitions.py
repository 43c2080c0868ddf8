"""Set partitions of a vertex set, their lattice Moebius values, quotients.

The partition lattice is ordered by refinement with the discrete partition
at the bottom.  For a partition rho the Moebius value from the discrete
partition is the product over blocks B of (-1)^(|B|-1) * (|B|-1)!.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .graphs import SmallGraph, pair_index

MAX_PARTITION_N = 10


@dataclass(frozen=True)
class VertexPartition:
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def validate(self) -> None:
        seen = [v for b in self.blocks for v in b]
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("blocks do not partition 0..n-1")
        if any(not b for b in self.blocks):
            raise ValueError("empty block")


def moebius_from_discrete(p: VertexPartition) -> int:
    mu = 1
    for b in p.blocks:
        k = len(b)
        mu *= (-1) ** (k - 1) * factorial(k - 1)
    return mu


def independent_partitions_with_moebius(
        g: SmallGraph) -> tuple[tuple[VertexPartition, int], ...]:
    """The partitions of g's vertices into independent sets, with Moebius
    values.  They are exactly the partitions whose quotient has no loop, so
    the edgeless graph on n vertices gets every partition of {0..n-1}, and
    a graph with a looped vertex gets none.

    Partitions are grown vertex by vertex: vertex i joins each earlier
    block in turn, then opens a new one.  A block holding a neighbour of i
    stays failed as it grows, so pruning it keeps the order of the edgeless
    graph's sweep."""
    if g.n > MAX_PARTITION_N:
        raise ValueError(f"partition enumeration capped at n={MAX_PARTITION_N}")
    if g.loops:
        return ()
    n = g.n
    rows = g.adj_rows()
    out = []
    blocks: list[list[int]] = []
    members: list[int] = []

    def rec(i):
        if i == n:
            p = VertexPartition(tuple(tuple(b) for b in blocks))
            out.append((p, moebius_from_discrete(p)))
            return
        for j, b in enumerate(blocks):
            if members[j] & rows[i]:
                continue
            b.append(i)
            members[j] |= 1 << i
            rec(i + 1)
            members[j] ^= 1 << i
            b.pop()
        blocks.append([i])
        members.append(1 << i)
        rec(i + 1)
        members.pop()
        blocks.pop()

    rec(0)
    return tuple(out)


def quotient(g: SmallGraph, p: VertexPartition) -> SmallGraph:
    """Contract each block to one vertex; a block with an internal edge or
    a looped member gets a loop.  Blocks are ordered by minimum element."""
    if p.n != g.n:
        raise ValueError("partition does not match graph order")
    p.validate()
    blocks = sorted(p.blocks, key=min)
    m = len(blocks)
    idx = [0] * g.n
    for i, b in enumerate(blocks):
        for v in b:
            idx[v] = i
    edges = 0
    loops = 0
    for a, b in g.edge_pairs():
        ia, ib = idx[a], idx[b]
        if ia == ib:
            loops |= 1 << ia
        else:
            edges |= 1 << pair_index(m, ia, ib)
    for v in range(g.n):
        if g.loops >> v & 1:
            loops |= 1 << idx[v]
    return SmallGraph(m, edges, loops)
