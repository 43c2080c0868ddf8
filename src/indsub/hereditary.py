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
demonstrated by count_independent_sets_via_reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .counting import DEFAULT_SUBSET_BUDGET, count_basis, count_brute
from .errors import InternalConsistencyError
from .graphs import MAX_SMALL_VERTICES, HostGraph, SmallGraph, bits_of
from .properties import PropertySpec, evaluate

DEFAULT_CRITICAL_BOUND = 4


@dataclass(frozen=True)
class ExplosionSpec:
    base: SmallGraph
    u: int
    v: int
    x: int
    y: int

    def __post_init__(self):
        n = self.base.n
        if not (0 <= self.u < n and 0 <= self.v < n) or self.u == self.v:
            raise ValueError("u, v must be distinct vertices of the base graph")
        if self.x < 0 or self.y < 0:
            raise ValueError("clone counts must be non-negative")

    @property
    def result_size(self) -> int:
        return self.base.n - 2 + self.x + self.y


def explode(spec: ExplosionSpec) -> SmallGraph:
    """The edge-exploded graph: drop the edge {u,v}, then replace u by x
    mutually non-adjacent copies and v by y copies, every copy keeping its
    original's remaining neighbors; a zero count deletes the vertex."""
    base, u, v = spec.base, spec.u, spec.v
    if not base.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the base graph")
    if spec.result_size > MAX_SMALL_VERTICES:
        raise ValueError(
            f"explosion would have {spec.result_size} > {MAX_SMALL_VERTICES} vertices")
    rest = [w for w in range(base.n) if w != u and w != v]
    pos = {w: i for i, w in enumerate(rest)}
    r = len(rest)
    edges = [(pos[a], pos[b]) for a, b in base.edge_pairs()
             if a in pos and b in pos]
    u_nbrs = [pos[w] for w in bits_of(base.adj_rows()[u]) if w in pos]
    v_nbrs = [pos[w] for w in bits_of(base.adj_rows()[v]) if w in pos]
    for i in range(spec.x):
        edges.extend((w, r + i) for w in u_nbrs)
    for j in range(spec.y):
        edges.extend((w, r + spec.x + j) for w in v_nbrs)
    return SmallGraph.from_edges(spec.result_size, edges)


@dataclass(frozen=True)
class TwinPartition:
    graph: SmallGraph
    blocks: tuple[tuple[int, ...], ...]
    collapsed: SmallGraph

    def singleton_vertices(self) -> frozenset[int]:
        return frozenset(b[0] for b in self.blocks if len(b) == 1)


def twin_partition(h: SmallGraph) -> TwinPartition:
    """Group vertices that have identical neighborhoods (false twins; such
    vertices are never adjacent in a loop-free graph) and collapse each
    group to one vertex."""
    if h.loops:
        raise ValueError("twin partition is defined for loop-free graphs")
    rows = h.adj_rows()
    groups: dict[int, list[int]] = {}
    for w in range(h.n):
        groups.setdefault(rows[w], []).append(w)
    blocks = tuple(sorted((tuple(g) for g in groups.values()),
                          key=lambda b: b[0]))
    reps = [b[0] for b in blocks]
    edges = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if h.has_edge(reps[i], reps[j]):
                edges.append((i, j))
    for b in blocks:
        for a, c in combinations(b, 2):
            if h.has_edge(a, c):
                raise InternalConsistencyError(
                    "false twins found adjacent; neighborhood grouping broken")
    return TwinPartition(h, blocks, SmallGraph.from_edges(len(blocks), edges))


@dataclass(frozen=True)
class CriticalEdgeCertificate:
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


@dataclass(frozen=True)
class CriticalCheckResult:
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
    color = [-1] * host.n
    for s in range(host.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            a = stack.pop()
            for b in host.neighbors[a]:
                if color[b] < 0:
                    color[b] = color[a] ^ 1
                    stack.append(b)
                elif color[b] == color[a]:
                    return None
    u_side = tuple(w for w in range(host.n) if color[w] == 0)
    v_side = tuple(w for w in range(host.n) if color[w] == 1)
    return u_side, v_side


@dataclass(frozen=True)
class ReductionInstance:
    ghat: HostGraph
    r: int
    z_indices: tuple[int, ...]
    u_indices: tuple[int, ...]
    v_indices: tuple[int, ...]


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
    """Glue the host between the exploded endpoints of h: the first part
    plays the u-clones, the second the v-clones, the rest of h is kept as
    the r = |V(h)|-2 distinguished vertices, and the host's edges are laid
    across the two clone sides."""
    u_side, v_side = _check_parts(host, parts)
    if not u_side or not v_side:
        raise ValueError("both parts must be nonempty")
    hu, hv = edge
    if not h.has_edge(hu, hv):
        raise ValueError(f"({hu},{hv}) is not an edge of the forbidden graph")
    rest = [w for w in range(h.n) if w != hu and w != hv]
    r = len(rest)
    pos = {w: i for i, w in enumerate(rest)}
    of_u = {w: r + i for i, w in enumerate(u_side)}
    of_v = {w: r + len(u_side) + i for i, w in enumerate(v_side)}
    edges = [(pos[a], pos[b]) for a, b in h.edge_pairs() if a in pos and b in pos]
    hrows = h.adj_rows()
    for z in bits_of(hrows[hu]):
        if z in pos:
            edges.extend((pos[z], of_u[w]) for w in u_side)
    for z in bits_of(hrows[hv]):
        if z in pos:
            edges.extend((pos[z], of_v[w]) for w in v_side)
    host_map = {**of_u, **of_v}
    edges.extend((host_map[a], host_map[b]) for a, b in host.edge_pairs())
    ghat = HostGraph.from_edges(host.n + r, edges)
    return ReductionInstance(ghat, r, tuple(range(r)),
                             tuple(of_u[w] for w in u_side),
                             tuple(of_v[w] for w in v_side))


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
    u_side, v_side = _check_parts(host, parts)
    if not u_side or not v_side:
        if host.edge_count:
            raise ValueError("host has an edge inside one part")
        return comb(host.n, k)
    inst = build_reduction_instance(host, parts, h, edge)
    total = 0
    for mask in range(1 << inst.r):
        victims = [inst.z_indices[i] for i in range(inst.r) if mask >> i & 1]
        sub = inst.ghat.delete_vertices(victims)
        if method == "brute":
            term = count_brute(phi, k + inst.r, sub, budget=budget)
        elif method == "basis":
            term = count_basis(phi, k + inst.r, sub)
        else:
            raise ValueError(f"unknown method {method!r}")
        total += -term if len(victims) % 2 else term
    if total < 0:
        raise InternalConsistencyError(
            "reduction produced a negative count; the supplied edge is "
            "likely not critical")
    return total
