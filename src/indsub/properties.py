"""Graph properties: predicate plus declared structural flags.

A property is an isomorphism-invariant boolean on loop-free graphs.  The
declared flags (monotone, hereditary, edge-count-only, sparse(s)) are
promises the predicate is supposed to keep; verify_flags checks them
exhaustively on all isomorphism classes up to a size bound and reports
violations with witnesses instead of trusting the declaration.

User properties enter through three constructors: a forbidden induced
subgraph list, a forbidden subgraph list (monotone by construction), or a
truth table over the catalog order of a fixed k.  Both forbidden lists are
tested by one backtracking embedding search: a subgraph embedding maps
edges to edges, and an induced one also maps non-edges to non-edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Optional

from .catalog import (
    MAX_CATALOG_K,
    MAX_FLAG_K,
    _starts,
    build_catalog,
    edge_deletions,
    vertex_deletions,
)
from .errors import FormatError, PredicateError, UnknownPropertyError
from .graphs import SmallGraph, _read_text, bits_of, reach


@dataclass(frozen=True)
class PropertySpec:
    name: str
    predicate: Callable[[SmallGraph], bool]
    monotone: bool = False
    hereditary: bool = False
    edge_count_only: bool = False
    sparse_bound: Optional[int] = None
    forbidden_induced: Optional[tuple[SmallGraph, ...]] = None
    forbidden_subgraphs: Optional[tuple[SmallGraph, ...]] = None

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.monotone:
            out.append("monotone")
        if self.hereditary:
            out.append("hereditary")
        if self.edge_count_only:
            out.append("edge-count-only")
        if self.sparse_bound is not None:
            out.append(f"sparse({self.sparse_bound})")
        return tuple(out)

    def __call__(self, g: SmallGraph) -> bool:
        return evaluate(self, g)


def evaluate(phi: PropertySpec, g: SmallGraph) -> bool:
    if g.loops:
        raise ValueError("properties are defined on loop-free graphs")
    try:
        return bool(phi.predicate(g))
    except Exception as exc:  # noqa: BLE001 - echo the offending graph
        raise PredicateError(
            f"property {phi.name!r} failed on {g.to_graph6()!r}: {exc}") from exc


def invert(phi: PropertySpec) -> PropertySpec:
    """Compose with graph complement.  Hereditary and edge-count-only are
    preserved; monotone and sparsity are not."""
    pred = phi.predicate
    forb = None
    if phi.forbidden_induced is not None:
        forb = tuple(h.complement() for h in phi.forbidden_induced)
    return PropertySpec(
        name=f"inv-{phi.name}",
        predicate=lambda g: pred(g.complement()),
        hereditary=phi.hereditary,
        edge_count_only=phi.edge_count_only,
        forbidden_induced=forb,
    )


# ----------------------------------------------------------- predicates

def _always_true(g):
    return True


def _always_false(g):
    return False


def _no_edges(g):
    return g.edges == 0


def _connected(g):
    return g.is_connected()


def _bipartite(g):
    rows = g.adj_rows()
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in bits_of(rows[u]):
                if color[v] < 0:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def _triangle_free(g):
    rows = g.adj_rows()
    for i, j in g.edge_pairs():
        if rows[i] & rows[j]:
            return False
    return True


def _planar(g):
    """Exact planarity test on the adjacency bitmasks.

    Below 5 vertices every graph is planar, and above 3n - 6 edges none is.
    Otherwise the graph is split into its biconnected blocks by the DFS
    low-points of Hopcroft and Tarjan (1973); the graph is planar iff every
    block is, and each block is tested by the path-addition algorithm of
    Demoucron, Malgrange and Pertuiset (1964)."""
    if g.n < 5:
        return True
    if g.edge_count > 3 * g.n - 6:
        return False
    rows = g.adj_rows()
    return all(_block_planar(rows, block) for block in _blocks(rows))


def _blocks(rows):
    """Vertex masks of the biconnected blocks with at least one edge."""
    n = len(rows)
    order = [-1] * n                 # DFS discovery time
    low = [0] * n
    left = list(rows)                # neighbours not yet scanned
    blocks = []
    time = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = time
        time += 1
        path = [root]                # the DFS tree path from root
        pending = [root]             # visited vertices not yet in a block
        while path:
            v = path[-1]
            if left[v]:
                low_bit = left[v] & -left[v]
                left[v] ^= low_bit
                w = low_bit.bit_length() - 1
                if order[w] < 0:
                    order[w] = low[w] = time
                    time += 1
                    path.append(w)
                    pending.append(w)
                elif order[w] < low[v]:
                    low[v] = order[w]
                continue
            path.pop()
            if not path:
                break
            u = path[-1]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= order[u]:   # u separates v's subtree: one block
                block = 1 << u
                while not block >> v & 1:
                    block |= 1 << pending.pop()
                blocks.append(block)
    return blocks


def _block_planar(rows, block):
    """Demoucron-Malgrange-Pertuiset on one biconnected block: embed a
    cycle, then keep embedding a path of a fragment into a face that
    admits it, choosing a fragment with a single admissible face first."""
    rows = [r & block for r in rows]
    nv = block.bit_count()
    ne = sum(rows[v].bit_count() for v in bits_of(block)) // 2
    if ne <= nv + 2:          # a K5 or K3,3 subdivision has e - n + 1 >= 4
        return True
    if ne > 3 * nv - 6:
        return False
    v = next(bits_of(block))
    u = next(bits_of(rows[v]))
    cycle = _inner_path(rows, u, v, block & ~(1 << u | 1 << v))
    placed = 0                # embedded vertices
    done = [0] * len(rows)    # embedded edges, as adjacency rows
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        placed |= 1 << a
        done[a] |= 1 << b
        done[b] |= 1 << a
    faces = [cycle, cycle]    # boundary cycles of the embedding's faces
    masks = [placed, placed]
    while True:
        chosen = None
        for att, inner in _fragments(rows, block, placed, done):
            fits = [i for i, m in enumerate(masks) if not att & ~m]
            if not fits:
                return False
            if chosen is None or len(fits) == 1:
                chosen = att, inner, fits[0]
                if len(fits) == 1:
                    break
        if chosen is None:
            return True
        att, inner, i = chosen
        a, b, *_ = bits_of(att)
        path = _inner_path(rows, a, b, inner) if inner else [a, b]
        for x, y in zip(path, path[1:]):
            placed |= 1 << y
            done[x] |= 1 << y
            done[y] |= 1 << x
        # Split face i by the path: a..b along the face, then back along
        # the path, and b..a along the face, then forward along the path.
        face = faces[i]
        s = face.index(a)
        face = face[s:] + face[:s]
        t = face.index(b)
        faces[i] = face[:t + 1] + path[-2:0:-1]
        faces.append(face[t:] + face[:1] + path[1:-1])
        masks[i] = sum(1 << x for x in faces[i])
        masks.append(sum(1 << x for x in faces[-1]))


def _fragments(rows, block, placed, done):
    """(attachment mask, interior mask) of each fragment of the embedded
    subgraph: every chord, with no interior, then every component of the
    vertices not yet embedded."""
    for x in bits_of(placed):
        for y in bits_of(rows[x] & ~done[x] & placed & ~((2 << x) - 1)):
            yield 1 << x | 1 << y, 0
    rest = block & ~placed
    while rest:
        comp = reach(rows, rest & -rest, rest)
        rest &= ~comp
        att = 0
        for x in bits_of(comp):
            att |= rows[x]
        yield att & placed, comp


def _inner_path(rows, a, b, inner):
    """A shortest a-b path whose interior is non-empty and inside the mask
    `inner`; the callers' blocks guarantee one exists."""
    prev = {x: a for x in bits_of(rows[a] & inner)}
    frontier = seen = rows[a] & inner
    while frontier:
        nxt = 0
        for x in bits_of(frontier):
            if rows[x] >> b & 1:
                path = [b]
                while x != a:
                    path.append(x)
                    x = prev[x]
                path.append(a)
                return path[::-1]
            for y in bits_of(rows[x] & inner & ~seen & ~nxt):
                prev[y] = x
                nxt |= 1 << y
        seen |= nxt
        frontier = nxt
    raise ValueError(f"no path from {a} to {b} through the block")


def _edge_count_even(g):
    return g.edge_count % 2 == 0


def _chordal(g):
    """Repeatedly strip simplicial vertices; chordal iff nothing is left."""
    rows = list(g.adj_rows())
    alive = (1 << g.n) - 1
    remaining = g.n
    while remaining:
        progress = False
        for v in bits_of(alive):
            nb = rows[v] & alive
            simplicial = True
            for u in bits_of(nb):
                if nb & ~(rows[u] | (1 << u)):
                    simplicial = False
                    break
            if simplicial:
                alive &= ~(1 << v)
                remaining -= 1
                progress = True
        if not progress:
            return False
    return True


def _split(g):
    """Hammer-Simeone degree criterion for split graphs."""
    deg = sorted(g.degrees(), reverse=True)
    n = g.n
    m = 0
    for i in range(1, n + 1):
        if deg[i - 1] >= i - 1:
            m = i
    lhs = sum(deg[:m])
    rhs = m * (m - 1) + sum(deg[m:])
    return lhs == rhs


def _has_odd_hole(n, rows):
    for ell in range(5, n + 1, 2):
        for sub in combinations(range(n), ell):
            inside = 0
            for v in sub:
                inside |= 1 << v
            degs_ok = True
            for v in sub:
                if (rows[v] & inside).bit_count() != 2:
                    degs_ok = False
                    break
            if not degs_ok:
                continue
            if reach(rows, 1 << sub[0], inside) == inside:
                return True
    return False


def _perfect(g):
    rows = g.adj_rows()
    if _has_odd_hole(g.n, rows):
        return False
    comp = g.complement()
    return not _has_odd_hole(g.n, comp.adj_rows())


def contains_induced(g: SmallGraph, h: SmallGraph) -> bool:
    """Does g contain h as an induced subgraph?"""
    return _embeds(g, h, induced=True)


def contains_subgraph(g: SmallGraph, h: SmallGraph) -> bool:
    """Does g contain h as a (not necessarily induced) subgraph?"""
    return _embeds(g, h, induced=False)


def _embeds(g: SmallGraph, h: SmallGraph, induced: bool) -> bool:
    """Backtracking search for an injective map of h into g that carries
    edges to edges and, when induced, non-edges to non-edges.  The vertices
    of h are placed by falling degree; a vertex's candidates are the unused
    vertices of g adjacent to the images of its placed neighbors and, when
    induced, to no image of a placed non-neighbor."""
    if h.n > g.n or h.edge_count > g.edge_count:
        return False
    hrows = h.adj_rows()
    grows = g.adj_rows()
    verts = sorted(range(h.n), key=lambda v: -hrows[v].bit_count())
    image = [0] * h.n

    def rec(i, free):
        if i == len(verts):
            return True
        v = verts[i]
        cand = free
        for u in verts[:i]:
            if hrows[v] >> u & 1:
                cand &= grows[image[u]]
            elif induced:
                cand &= ~grows[image[u]]
        for w in bits_of(cand):
            image[v] = w
            if rec(i + 1, free & ~(1 << w)):
                return True
        return False

    return rec(0, (1 << g.n) - 1)


# ------------------------------------------------------------- the zoo

_K2 = SmallGraph.complete(2)
_K3 = SmallGraph.complete(3)
_K5 = SmallGraph.complete(5)
_C4 = SmallGraph.cycle(4)
_C5 = SmallGraph.cycle(5)
_C6 = SmallGraph.cycle(6)
_C7 = SmallGraph.cycle(7)
_2K2 = SmallGraph.cycle(4).complement()

BUILTIN_PROPERTIES: dict[str, PropertySpec] = {
    "true": PropertySpec("true", _always_true, monotone=True, hereditary=True,
                         edge_count_only=True),
    "false": PropertySpec("false", _always_false, monotone=True,
                          hereditary=True, edge_count_only=True),
    "no-edges": PropertySpec("no-edges", _no_edges, monotone=True,
                             hereditary=True, edge_count_only=True,
                             sparse_bound=0, forbidden_induced=(_K2,),
                             forbidden_subgraphs=(_K2,)),
    "connected": PropertySpec("connected", _connected),
    "bipartite": PropertySpec("bipartite", _bipartite, monotone=True,
                              hereditary=True,
                              forbidden_induced=(_K3, _C5, _C7),
                              forbidden_subgraphs=(_K3,)),
    "triangle-free": PropertySpec("triangle-free", _triangle_free,
                                  monotone=True, hereditary=True,
                                  forbidden_induced=(_K3,),
                                  forbidden_subgraphs=(_K3,)),
    "planar": PropertySpec("planar", _planar, monotone=True, hereditary=True,
                           sparse_bound=3, forbidden_subgraphs=(_K5,)),
    "edge-count-even": PropertySpec("edge-count-even", _edge_count_even,
                                    edge_count_only=True),
    "chordal": PropertySpec("chordal", _chordal, hereditary=True,
                            forbidden_induced=(_C4, _C5, _C6)),
    "split": PropertySpec("split", _split, hereditary=True,
                          forbidden_induced=(_2K2, _C4, _C5)),
    "perfect": PropertySpec("perfect", _perfect, hereditary=True,
                            forbidden_induced=(_C5, _C7, _C7.complement())),
}


def get_property(name: str) -> PropertySpec:
    try:
        return BUILTIN_PROPERTIES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROPERTIES))
        raise UnknownPropertyError(f"{name!r} (known: {known})") from None


# ------------------------------------------------- user-defined properties

def forbidden_induced_property(graphs, name="forbidden-induced") -> PropertySpec:
    gs = tuple(graphs)

    def pred(g):
        return not any(contains_induced(g, h) for h in gs)

    return PropertySpec(name, pred, hereditary=True, forbidden_induced=gs)


def forbidden_subgraph_property(graphs, name="forbidden-subgraph") -> PropertySpec:
    gs = tuple(graphs)

    def pred(g):
        return not any(contains_subgraph(g, h) for h in gs)

    return PropertySpec(name, pred, monotone=True, hereditary=True,
                        forbidden_subgraphs=gs)


def truth_table_property(tables: dict[int, str], name="truth-table") -> PropertySpec:
    """tables maps k to a catalog-ordered bit string; graphs of a size with
    no table do not satisfy the property."""
    parsed = {}
    for k, bitstring in tables.items():
        if not 1 <= k <= MAX_CATALOG_K:
            raise FormatError(
                f"truth table for k={k}: catalogs cover 1 <= k <= {MAX_CATALOG_K}")
        bits = bitstring.strip()
        if set(bits) - {"0", "1"}:
            raise FormatError(f"truth table for k={k} is not a bit string")
        cat = build_catalog(k)
        if len(bits) != cat.class_count:
            raise FormatError(
                f"truth table for k={k} has {len(bits)} bits, catalog has "
                f"{cat.class_count} classes")
        parsed[k] = bits

    def pred(g):
        bits = parsed.get(g.n)
        if bits is None:
            return False
        cat = build_catalog(g.n)
        return bits[cat.index_of(g)] == "1"

    return PropertySpec(name, pred)


def load_truth_table(path) -> dict[int, str]:
    """Parse a truth-table file: "k=<int>" header lines, each followed by
    one bit-string line; several sections allowed."""
    lines = [ln.strip() for ln in _read_text(path).splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    tables: dict[int, str] = {}
    i = 0
    while i < len(lines):
        if not lines[i].startswith("k="):
            raise FormatError(f"{path}: expected 'k=<int>' header, got {lines[i]!r}")
        try:
            k = int(lines[i][2:])
        except ValueError:
            raise FormatError(f"{path}: bad header {lines[i]!r}") from None
        if i + 1 >= len(lines):
            raise FormatError(f"{path}: missing bit string for k={k}")
        if k in tables:
            raise FormatError(f"{path}: repeated section for k={k}")
        tables[k] = lines[i + 1]
        i += 2
    if not tables:
        raise FormatError(f"{path}: no tables found")
    return tables


# ------------------------------------------------------ flag verification


@dataclass(frozen=True)
class FlagViolation:
    flag: str
    witness: str       # graph6 of the offending graph
    detail: str


@dataclass(frozen=True)
class FlagReport:
    property_name: str
    k_max: int
    checked: tuple[str, ...]
    violations: tuple[FlagViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@lru_cache(maxsize=64)
def class_values(phi: PropertySpec, k: int) -> tuple[bool, ...]:
    """phi on every k-vertex catalog class, in catalog order.  phi is
    isomorphism-invariant, so this is the one place it is evaluated on
    catalog classes."""
    return tuple(evaluate(phi, g) for g in build_catalog(k).graphs())


def verify_flags(phi: PropertySpec, k_max: int) -> FlagReport:
    """Exhaustively check the declared flags on all isomorphism classes with
    at most k_max vertices (k_max <= MAX_FLAG_K), deletions by catalog
    lookup."""
    if not 1 <= k_max <= MAX_FLAG_K:
        raise ValueError(f"verify_flags supports 1 <= k_max <= {MAX_FLAG_K}")
    violations: list[FlagViolation] = []

    def check(flag, g6, ok, detail):
        if not ok:
            violations.append(FlagViolation(flag, g6, detail))

    below = None                       # phi on the (k-1)-vertex classes
    for k in range(1, k_max + 1):
        cat = build_catalog(k)
        vals = class_values(phi, k)
        drop_edge = edge_deletions(k)
        drop_vertex = vertex_deletions(k) if k > 1 else ((0,),)
        if k == 1 and vals[0] and (phi.monotone or phi.hereditary):
            # the 0-vertex graph has no catalog
            below = (evaluate(phi, SmallGraph(0, 0)),)
        by_m: dict[int, set[bool]] = {}
        for idx, (edges, g6, val) in enumerate(zip(cat.edges, cat.graph6,
                                                   vals)):
            m = edges.bit_count()
            by_m.setdefault(m, set()).add(val)
            if not val:
                continue
            if phi.sparse_bound is not None:
                check(f"sparse({phi.sparse_bound})", g6,
                      m <= phi.sparse_bound * k, f"{m} edges on {k} vertices")
            if phi.monotone:
                pairs = cat.graph(idx).edge_pairs()
                for (i, j), c in zip(pairs, drop_edge[idx]):
                    check("monotone", g6, vals[c],
                          f"fails after deleting edge ({i},{j})")
                for v, c in enumerate(drop_vertex[idx]):
                    check("monotone", g6, below[c],
                          f"fails after deleting vertex {v}")
            if phi.hereditary:
                for v, c in enumerate(drop_vertex[idx]):
                    check("hereditary", g6, below[c],
                          f"fails after deleting vertex {v}")
        if phi.edge_count_only:
            starts = _starts(cat)
            for m, seen in sorted(by_m.items()):
                if len(seen) > 1:
                    violations.append(FlagViolation(
                        "edge-count-only", cat.graph6[starts[m]],
                        f"value not constant on ({k},{m}) classes"))
        below = vals
    checked = phi.flags
    return FlagReport(phi.name, k_max, checked, tuple(violations))

