"""Critical-edge analysis for hereditary properties.

An edge {u,v} of a forbidden graph is critical when every way of removing
it and multiplying its endpoints (the "explosion") lands back inside the
property.  Criticality quantifies over all clone counts, so a finite tool
reports it at three confidence levels: "proven" (the singleton-twin
criterion, valid when the forbidden set is exactly {h}), "known" (a short
structural argument covers all explosions, as for the built-in perfect /
chordal / split examples), and "bounded" (grid-checked up to a bound).

A certified critical edge turns counting k-independent sets in a bipartite
graph into 2^r counting calls for the property itself — the reduction
demonstrated by count_independent_sets_via_reduction.  One builder lays
out every explosion's edges; the reduction's instance is the explosion
with one clone per host vertex, plus the host's edges between the clones.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .counting import DEFAULT_SUBSET_BUDGET, count_basis, count_brute
from .errors import InternalConsistencyError
from .graphs import (
    MAX_SMALL_VERTICES,
    HostGraph,
    SmallGraph,
    bits_of,
    two_colouring,
)
from .properties import PropertySpec, evaluate

DEFAULT_CRITICAL_BOUND = 4


class _ExplosionSpec(NamedTuple):
    base: SmallGraph
    u: int
    v: int
    x: int
    y: int


class ExplosionSpec(_ExplosionSpec):
    __slots__ = ()

    def __new__(cls, base: SmallGraph, u: int, v: int, x: int, y: int
                ) -> "ExplosionSpec":
        n = base.n
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError("u, v must be distinct vertices of the base graph")
        if x < 0 or y < 0:
            raise ValueError("clone counts must be non-negative")
        return tuple.__new__(cls, (base, u, v, x, y))

    @property
    def result_size(self) -> int:
        return self.base.n - 2 + self.x + self.y


def _exploded_edges(spec: ExplosionSpec) -> list[tuple[int, int]]:
    """The explosion's edges in its one vertex layout: the base's other
    vertices 0..r-1 in their order, then the x copies of u, then the y
    copies of v."""
    base, u, v = spec.base, spec.u, spec.v
    if not base.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the base graph")
    rest = [w for w in range(base.n) if w != u and w != v]
    pos = {w: i for i, w in enumerate(rest)}
    r = len(rest)
    edges = [(pos[a], pos[b]) for a, b in base.edge_pairs()
             if a in pos and b in pos]
    rows = base.adj_rows()
    u_nbrs = [pos[w] for w in bits_of(rows[u]) if w in pos]
    v_nbrs = [pos[w] for w in bits_of(rows[v]) if w in pos]
    edges.extend((w, r + i) for i in range(spec.x) for w in u_nbrs)
    edges.extend((w, r + spec.x + j) for j in range(spec.y) for w in v_nbrs)
    return edges


def explode(spec: ExplosionSpec) -> SmallGraph:
    """The edge-exploded graph: drop the edge {u,v}, then replace u by x
    mutually non-adjacent copies and v by y copies, every copy keeping its
    original's remaining neighbors; a zero count deletes the vertex."""
    if spec.result_size > MAX_SMALL_VERTICES:
        raise ValueError(
            f"explosion would have {spec.result_size} > {MAX_SMALL_VERTICES} vertices")
    return SmallGraph.from_edges(spec.result_size, _exploded_edges(spec))


class TwinPartition(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]

    def singleton_vertices(self) -> frozenset[int]:
        return frozenset(b[0] for b in self.blocks if len(b) == 1)


def twin_partition(h: SmallGraph) -> TwinPartition:
    """Group vertices that have identical neighborhoods (false twins; such
    vertices are never adjacent in a simple graph)."""
    rows = h.adj_rows()
    groups: dict[int, list[int]] = {}
    for w in range(h.n):
        groups.setdefault(rows[w], []).append(w)
    blocks = tuple(sorted((tuple(g) for g in groups.values()),
                          key=lambda b: b[0]))
    for b in blocks:
        for a, c in combinations(b, 2):
            if h.has_edge(a, c):
                raise InternalConsistencyError(
                    "false twins found adjacent; neighborhood grouping broken")
    return TwinPartition(blocks)


class CriticalEdgeCertificate(NamedTuple):
    graph: SmallGraph
    edge: tuple[int, int]
    in_complement: bool
    confidence: str
    note: str


def singleton_critical_edge(h: SmallGraph) -> CriticalEdgeCertificate:
    """Find an edge of h or of its complement whose endpoints are both
    singleton twin classes.  Such an edge is critical for the property
    "h-free" (respectively its inverse): collapsing any explosion loses
    the exploded edge, so the collapse has too few edges to contain the
    collapse of the original.  One of the two graphs always carries such
    an edge when h has at least two vertices."""
    if h.n < 2:
        raise ValueError("need at least two vertices")
    for g, flag in ((h, False), (h.complement(), True)):
        singles = twin_partition(g).singleton_vertices()
        for a, b in g.edge_pairs():
            if a in singles and b in singles:
                side = "the complement" if flag else "the graph itself"
                return CriticalEdgeCertificate(
                    g, (a, b), flag, "proven",
                    f"both endpoints are singleton twin classes in {side}")
    raise InternalConsistencyError(
        "no singleton-singleton edge in the graph or its complement; "
        "this contradicts the twin-partition argument for n >= 2")


class CriticalCheckResult(NamedTuple):
    status: str                       # "consistent" | "refuted"
    bound: int
    witness: tuple[int, int] | None   # refuting (x, y), if any
    checked: int

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"


def bounded_critical_check(phi: PropertySpec, h: SmallGraph,
                           edge: tuple[int, int], *,
                           bound: int = DEFAULT_CRITICAL_BOUND
                           ) -> CriticalCheckResult:
    """Evaluate phi on every explosion of the edge with clone counts on
    the grid 0..bound; a single failure refutes criticality and is
    returned with its witness pair."""
    if bound < 0:
        raise ValueError(f"grid bound must be >= 0, got {bound}")
    u, v = edge
    checked = 0
    for x in range(bound + 1):
        for y in range(bound + 1):
            g = explode(ExplosionSpec(h, u, v, x, y))
            checked += 1
            if not evaluate(phi, g):
                return CriticalCheckResult("refuted", bound, (x, y), checked)
    return CriticalCheckResult("consistent", bound, None, checked)


# ------------------------------------------------------------- reduction

def bipartition_of(host: HostGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A two-coloring of the host, sides ordered by smallest member, or
    None if the host has an odd cycle."""
    colour = two_colouring(host.neighbors)
    if colour is None:
        return None
    return (tuple(w for w in range(host.n) if not colour[w]),
            tuple(w for w in range(host.n) if colour[w]))


class ReductionInstance(NamedTuple):
    """ghat's vertices 0..r-1 are the distinguished ones; host vertex w
    sits at r + its index in the first part followed by the second."""

    ghat: HostGraph
    r: int


def _check_parts(host: HostGraph, parts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    u_side, v_side = tuple(parts[0]), tuple(parts[1])
    if sorted(u_side + v_side) != list(range(host.n)):
        raise ValueError("parts must partition the host vertices")
    for side in (u_side, v_side):
        members = set(side)
        for a in side:
            if members.intersection(host.neighbors[a]):
                raise ValueError("host has an edge inside one part")
    return u_side, v_side


def build_reduction_instance(host: HostGraph, parts, h: SmallGraph,
                             edge: tuple[int, int]) -> ReductionInstance:
    """Glue the host between the exploded endpoints of h: the explosion of
    the edge with one u-clone per vertex of the first part and one
    v-clone per vertex of the second, plus the host's edges laid across
    the clones; the rest of h is kept as the r = |V(h)|-2 distinguished
    vertices."""
    u_side, v_side = _check_parts(host, parts)
    if not u_side or not v_side:
        raise ValueError("both parts must be nonempty")
    spec = ExplosionSpec(h, *edge, len(u_side), len(v_side))
    r = h.n - 2
    clone = {w: r + i for i, w in enumerate(u_side + v_side)}
    edges = _exploded_edges(spec)
    edges.extend((clone[a], clone[b]) for a, b in host.edge_pairs())
    return ReductionInstance(HostGraph.from_edges(spec.result_size, edges), r)


def count_independent_sets_via_reduction(host: HostGraph, parts, k: int,
                                         phi: PropertySpec, h: SmallGraph,
                                         edge: tuple[int, int], *,
                                         method: str = "brute",
                                         budget: int = DEFAULT_SUBSET_BUDGET
                                         ) -> int:
    """Number of k-vertex independent sets of the bipartite host, computed
    through 2^r property-counting calls on the glued instance: the terms
    sum, with inclusion-exclusion signs over deleted distinguished
    vertices, to the number of satisfying (k+r)-sets containing all r
    distinguished vertices, and those are exactly the independent sets
    when the supplied edge is critical."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if method not in ("brute", "basis"):
        raise ValueError(f"unknown method {method!r}")
    if not parts[0] or not parts[1]:
        _check_parts(host, parts)
        return comb(host.n, k)
    inst = build_reduction_instance(host, parts, h, edge)
    total = 0
    for mask in range(1 << inst.r):
        victims = list(bits_of(mask))
        sub = inst.ghat.delete_vertices(victims)
        if method == "brute":
            term = count_brute(phi, k + inst.r, sub, budget=budget)
        else:
            term = count_basis(phi, k + inst.r, sub)
        total += -term if len(victims) % 2 else term
    if total < 0:
        raise InternalConsistencyError(
            "reduction produced a negative count; the supplied edge is "
            "likely not critical")
    return total
