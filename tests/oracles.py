"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles with the dumbest
correct algorithm available -- full permutation sweeps, exhaustive map
enumeration, orbit walks under the symmetric group -- and touches only
the plain graph accessors of the package (vertex/edge reads), never the
algorithmic modules it is used to check.

The partition lattice lives here too: every set partition, its Moebius
value from the product formula, and a quotient that is None when a block
holds an edge.  The reference quotient row and the homomorphism-basis
references at the end name classes and quotients through the package's
catalog and canonical forms, so that their output can be compared entry
for entry, but they reach the coefficients by labeled edge-set sweeps
over all partitions, dropping those with an edge inside a block, instead
of the class-level recursion and the block-mask enumeration of
independent-set partitions in hombasis.
The flag-verification reference likewise walks the package's catalog, but
evaluates the property on labeled deletions instead of reading the
catalog's deletion maps.  The extension counts name classes by the
package's canonical keys, but enumerate every labeled edge superset.  The
reference deletion maps find every deleted graph's class through its
canonical form, without the catalog's refinement-invariant buckets.

The unpruned catalog builder is the package's builder without its
vertex-key test: it canonicalises the extension by one neighbor mask per
orbit of every parent's automorphism group, through the package's orbit
representatives and canonical forms.  vertex_key is the key that test
compares, read off the graph's adjacency rows.

The reference bag join computes one hom-DP bag's table by interpreting
the bag's plan candidate by candidate, where homcount runs a loop nest
compiled for the bag's shape; both must give equal tables.

The f-polynomial references evaluate by Horner's rule and differentiate
with each falling factorial multiplied out afresh, all in Fraction
arithmetic.  The spanning-subgraph reference counts the subgraphs of one
representative that satisfy the property by evaluating it on every one.

The reference graph6 decoder unpacks every body bit and walks all
C(n,2) pairs, where the package reads only the nonzero body characters;
both share the package's header and length validation.

The reference graph6 encoder is the package's former small-graph writer:
it lists every pair bit in the format's order, pads to a multiple of six
and packs six bits per character, where the package adds one table entry
per byte of the edge bitset.  host_graph6 writes a host the same way, for
the tests that hand hosts to the graph6 readers; the package only reads
host graph6.

The reference emitter is the CLI's former JSON writer: a pass that turns
ints and rationals into strings, then json.dumps(indent=2).  The CLI's
one-pass emitter must give the same bytes.

The embedding oracles decide "h occurs in g" by exhaustive sweeps, not
the package's backtracking search: the induced one compares the brute
canonical key of every h.n-vertex induced subgraph of g with h's, and the
subgraph one tries every injective map.

The reference map-row rules are the per-row load checks the maps were
read with, one row at a time, each rule stated through edge counts: a
map's whole-map check (ClassMap.check) must accept exactly the maps whose
every row passes them.

The reference canoniser reaches the package's canonical labeling by a
slower route: refinement by sorted neighbor-color tuples, and a search
that visits every leaf of least words.  The package's canoniser must
agree with it on the form, the relabeling and the automorphism count.

The reference reduction instance glues the host between the exploded
endpoints of h by hand, vertex by vertex, where the package takes the
edge explosion and adds the host's edges; both must give the same graph.

The reference host-table rules check a neighbor table entry by entry:
every row sorted and without repeats, no loop, every entry in range and
every edge listed at both ends.  HostGraph must accept exactly the tables
they accept, where it rebuilds the table from its edge pairs instead.

The disjoint union of two hosts lists the first host's edges, then the
second's with every vertex shifted past the first host's vertices, for
identities that hold over G1 + G2 whatever route counts them.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction
from math import comb, factorial

from indsub.canon import (
    CanonicalForm,
    automorphism_count,
    automorphism_generators,
    canon_key,
    canonical_form,
)
from indsub.catalog import _orbit_representatives, build_catalog
from indsub.graphs import (
    MAX_HOST_VERTICES,
    HostGraph,
    SmallGraph,
    _graph6_body,
    bits_of,
    pair_count,
    pair_index,
    pair_table,
)
from indsub.hombasis import HomVector
from indsub.homcount import TreeDecomposition
from indsub.properties import FlagViolation

# ----------------------------------------------------------- permutations


def _pair_index_table(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    position = 0
    for a in range(n):
        for b in range(a + 1, n):
            idx[(a, b)] = position
            position += 1
    return idx


def relabeled_edge_mask(g: SmallGraph, perm) -> int:
    """Edge bitset of g with vertex i renamed perm[i], in lexicographic
    pair order."""
    idx = _pair_index_table(g.n)
    mask = 0
    for a, b in g.edge_pairs():
        x, y = perm[a], perm[b]
        mask |= 1 << idx[(x, y) if x < y else (y, x)]
    return mask


def brute_canonical_key(g: SmallGraph):
    """Minimum relabeled edge bitset over all n! permutations."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        mask = relabeled_edge_mask(g, perm)
        if best is None or mask < best:
            best = mask
    return (g.n, best)


@functools.lru_cache(maxsize=None)
def _brute_key_of(n: int, edges: int):
    return brute_canonical_key(SmallGraph(n, edges))


def brute_contains_induced(g: SmallGraph, h: SmallGraph) -> bool:
    """Some h.n vertices of g induce a graph with h's canonical key."""
    target = _brute_key_of(h.n, h.edges)
    return any(_brute_key_of(sub.n, sub.edges) == target
               for sub in map(g.induced,
                              itertools.combinations(range(g.n), h.n)))


def brute_contains_subgraph(g: SmallGraph, h: SmallGraph) -> bool:
    """Some injective map of h's vertices into g's carries every edge of h
    to an edge of g."""
    edges = {frozenset(p) for p in g.edge_pairs()}
    return any(all(frozenset((image[a], image[b])) in edges
                   for a, b in h.edge_pairs())
               for image in itertools.permutations(range(g.n), h.n))


def brute_is_isomorphic(a: SmallGraph, b: SmallGraph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    target = a.edges
    return any(relabeled_edge_mask(b, perm) == target
               for perm in itertools.permutations(range(b.n)))


def brute_automorphism_count(g: SmallGraph) -> int:
    target = g.edges
    return sum(1 for perm in itertools.permutations(range(g.n))
               if relabeled_edge_mask(g, perm) == target)


# ---------------------------------------------------- reference canoniser


def _reference_refined_colors(n: int, rows: list[int]) -> list[int]:
    sig = [rows[i].bit_count() for i in range(n)]
    palette = {s: c for c, s in enumerate(sorted(set(sig)))}
    col = [palette[s] for s in sig]
    while True:
        sig2 = [(col[i], tuple(sorted(col[j] for j in bits_of(rows[i]))))
                for i in range(n)]
        palette2 = {s: c for c, s in enumerate(sorted(set(sig2)))}
        new = [palette2[s] for s in sig2]
        if new == col:
            return col
        col = new


def _reference_canonical_search(n, rows, blocks):
    """Minimize the position-by-position adjacency words over all orderings
    compatible with the refinement blocks.  Returns (order, aut_count)."""
    posblock = []
    for bi, blk in enumerate(blocks):
        posblock.extend([bi] * len(blk))
    used = [False] * n
    order: list[int] = []

    def rec(p):
        if p == n:
            return (), 1, ()
        best_w = None
        cand = []
        for v in blocks[posblock[p]]:
            if used[v]:
                continue
            w = 0
            rv = rows[v]
            for t in range(p):
                if rv >> order[t] & 1:
                    w |= 1 << (p - 1 - t)
            if best_w is None or w < best_w:
                best_w = w
                cand = [v]
            elif w == best_w:
                cand.append(v)
        best_key = None
        best_tail = ()
        total = 0
        for v in cand:
            used[v] = True
            order.append(v)
            key, cnt, tail = rec(p + 1)
            order.pop()
            used[v] = False
            if best_key is None or key < best_key:
                best_key, total, best_tail = key, cnt, (v,) + tail
            elif key == best_key:
                total += cnt
        return (best_w,) + (best_key or ()), total, best_tail

    _, aut, ordering = rec(0)
    return ordering, aut


def reference_canonical_data(g: SmallGraph) -> tuple[CanonicalForm, int]:
    """(canonical form, automorphism count) by the reference canoniser."""
    n = g.n
    if n == 0:
        return CanonicalForm(0, 0, ()), 1
    rows = g.adj_rows()
    colors = _reference_refined_colors(n, rows)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    blocks = [groups[c] for c in sorted(groups)]
    ordering, aut = _reference_canonical_search(n, rows, blocks)
    rel = [0] * n
    for pos, v in enumerate(ordering):
        rel[v] = pos
    edges = 0
    for i, j in g.edge_pairs():
        edges |= 1 << pair_index(n, rel[i], rel[j])
    return CanonicalForm(n, edges, tuple(rel)), aut


# ------------------------------------------------- isomorphism-orbit walk


def orbit_partition(n: int) -> list[list[int]]:
    """All 2^C(n,2) edge bitsets grouped into isomorphism classes by
    walking orbits under the adjacent transpositions, which generate the
    full symmetric group.  Returns the orbits as lists of masks."""
    idx = _pair_index_table(n)
    d = n * (n - 1) // 2
    generators = []
    for t in range(n - 1):
        swap = {v: v for v in range(n)}
        swap[t], swap[t + 1] = t + 1, t
        table = [0] * d
        for (a, b), position in idx.items():
            x, y = swap[a], swap[b]
            table[position] = idx[(x, y) if x < y else (y, x)]
        generators.append(table)

    def apply(table, mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << table[low.bit_length() - 1]
            mask ^= low
        return out

    seen = bytearray(1 << d)
    orbits = []
    for start in range(1 << d):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        frontier = [start]
        while frontier:
            mask = frontier.pop()
            for table in generators:
                image = apply(table, mask)
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
                    frontier.append(image)
        orbits.append(orbit)
    return orbits


# --------------------------------------------------------------- counting


def brute_hom_count(pattern: SmallGraph, host: HostGraph) -> int:
    """Homomorphisms by trying every vertex map."""
    edges = pattern.edge_pairs()
    adj = [set(row) for row in host.neighbors]
    total = 0
    for assignment in itertools.product(range(host.n), repeat=pattern.n):
        if all(assignment[b] in adj[assignment[a]] for a, b in edges):
            total += 1
    return total


def reference_host_table_valid(n: int, neighbors) -> bool:
    """Whether neighbors is a valid table of n rows, entry by entry."""
    if n < 0 or len(neighbors) != n:
        return False
    for u, nbrs in enumerate(neighbors):
        if list(nbrs) != sorted(set(nbrs)):
            return False
        for v in nbrs:
            if v == u or not 0 <= v < n or u not in neighbors[v]:
                return False
    return True


def host_has_edge(host: HostGraph, u: int, v: int) -> bool:
    return v in host.neighbors[u]


def host_complement(host: HostGraph) -> HostGraph:
    return HostGraph.from_edges(host.n, [
        (u, v) for u, v in itertools.combinations(range(host.n), 2)
        if not host_has_edge(host, u, v)])


def host_disjoint_union(g1: HostGraph, g2: HostGraph) -> HostGraph:
    """G1 + G2: the vertices of g1, then those of g2 shifted by g1.n."""
    return HostGraph.from_edges(g1.n + g2.n, [
        (u + shift, v + shift)
        for g, shift in ((g1, 0), (g2, g1.n))
        for u in range(g.n) for v in g.neighbors[u] if u < v])


def induced_small(host: HostGraph, vertices) -> SmallGraph:
    """The subgraph of host induced by vertices, relabeled in sorted
    order."""
    vs = sorted(vertices)
    edges = 0
    for b, (i, j) in enumerate(pair_table(len(vs))):
        if host_has_edge(host, vs[i], vs[j]):
            edges |= 1 << b
    return SmallGraph(len(vs), edges)


def brute_indsub_count(phi, k: int, host: HostGraph) -> int:
    """#IndSub by testing the predicate on every k-subset."""
    total = 0
    for subset in itertools.combinations(range(host.n), k):
        if phi(induced_small(host, subset)):
            total += 1
    return total


def brute_independent_set_count(host: HostGraph, k: int) -> int:
    adj = [set(row) for row in host.neighbors]
    total = 0
    for subset in itertools.combinations(range(host.n), k):
        if all(b not in adj[a] for a, b in itertools.combinations(subset, 2)):
            total += 1
    return total


def reference_reduction_instance(host: HostGraph, parts, h: SmallGraph,
                                 edge) -> HostGraph:
    """The reduction's glued graph: h's vertices other than the edge's
    endpoints first, in their order, then one u-clone per vertex of the
    first part, then one v-clone per vertex of the second; each clone is
    joined to its endpoint's other neighbors in h, and the host's edges
    run between the clones."""
    hu, hv = edge
    u_side, v_side = tuple(parts[0]), tuple(parts[1])
    rest = [w for w in range(h.n) if w != hu and w != hv]
    r = len(rest)
    pos = {w: i for i, w in enumerate(rest)}
    of_u = {w: r + i for i, w in enumerate(u_side)}
    of_v = {w: r + len(u_side) + i for i, w in enumerate(v_side)}
    edges = [(pos[a], pos[b]) for a, b in h.edge_pairs()
             if a in pos and b in pos]
    for z in rest:
        if h.has_edge(z, hu):
            edges.extend((pos[z], of_u[w]) for w in u_side)
        if h.has_edge(z, hv):
            edges.extend((pos[z], of_v[w]) for w in v_side)
    host_map = {**of_u, **of_v}
    edges.extend((host_map[a], host_map[b])
                 for a in range(host.n) for b in host.neighbors[a] if a < b)
    return HostGraph.from_edges(host.n + r, edges)


# -------------------------------------------------------------- treewidth


def brute_treewidth(g: SmallGraph) -> int:
    """Minimum over every elimination ordering of the largest clique the
    fill-in simulation creates; definitionally exhaustive."""
    if g.n == 0:
        return -1
    base = [set() for _ in range(g.n)]
    for a, b in g.edge_pairs():
        base[a].add(b)
        base[b].add(a)
    best = g.n - 1
    for order in itertools.permutations(range(g.n)):
        adj = [set(s) for s in base]
        alive = set(range(g.n))
        width = 0
        for v in order:
            live = adj[v] & alive
            width = max(width, len(live))
            if width >= best:
                break
            for a in live:
                adj[a] |= live - {a}
            alive.remove(v)
        else:
            best = min(best, width)
    return best


def elimination_decomposition(g: SmallGraph, order) -> TreeDecomposition:
    """The rooted decomposition an elimination order induces, optimal or
    not: after fill-in, one bag per vertex holding it and its neighbours
    eliminated later, hung below the bag of the earliest of those."""
    rank = {v: i for i, v in enumerate(order)}
    adj = [set() for _ in range(g.n)]
    for a, b in g.edge_pairs():
        adj[a].add(b)
        adj[b].add(a)
    bags, parent = [], []
    for v in order:
        later = sorted(u for u in adj[v] if rank[u] > rank[v])
        for a in later:
            adj[a].update(u for u in later if u != a)
        bags.append((v, *later))
        parent.append(rank[min(later, key=rank.__getitem__)] if later else -1)
    return TreeDecomposition(g, tuple(bags), tuple(parent))


def reference_bag_table(host: HostGraph, prows: list[int],
                        order: tuple[int, ...], levels: tuple[int, ...],
                        kids: list[tuple[tuple[int, ...], object]]):
    """One bag's table: the number of homomorphisms of the pattern below
    the bag per assignment of levels, its interface with its parent, as a
    trie keyed in that order (an int when levels is empty).  kids holds
    each child's bag and table.

    The hom DP's join as a stack machine that reads the bag's plan at
    every candidate and picks the smaller candidate source at run time,
    where homcount compiles one fixed loop nest per bag shape.  Its tables
    must equal the compiled join's as mappings."""
    n_host = host.n
    adj = host.adj_bits
    nbrs = host.neighbors
    m = len(order)
    pos = {u: i for i, u in enumerate(order)}
    # per position i: the earlier positions joined to it by a pattern
    # edge, and (slot, depth, last) for every child trie it descends;
    # nodes[slot][depth] is that trie's node for the current prefix
    nbr_pos = [[j for j in range(i) if prows[order[i]] >> order[j] & 1]
               for i in range(m)]
    reads: list[list[tuple[int, int, bool]]] = [[] for _ in range(m)]
    nodes: list[list] = []
    base = 1
    for bag, table in kids:
        scope = sorted(pos[u] for u in bag if u in pos)
        if scope:
            for depth, i in enumerate(scope):
                reads[i].append((len(nodes), depth, i == scope[-1]))
            nodes.append([table] + [None] * (len(scope) - 1))
        else:
            base *= table
    if not m:
        return base

    # the positions keying the levels of this bag's own trie.  _join_order
    # assigns the deepest one last, so the last position writes there
    # directly, walking the levels above once per prefix; with no levels,
    # only the number of its candidates is needed
    last = m - 1
    upper = [pos[u] for u in levels[:-1]]
    single = [js[0] if len(js) == 1 else -1 for js in nbr_pos]
    trie: dict = {}
    total = 0

    # depth-first join over positions 0..last: a position's candidates
    # are the host vertices adjacent to its assigned pattern-neighbours
    # that are also keys of every child trie it descends
    vals = [0] * m
    weights = [base] + [0] * m
    iters: list = [None] * m
    i = 0 if base else -1
    entering = True
    while i >= 0:
        if entering:
            mask = None
            for j in nbr_pos[i]:
                mask = adj[vals[j]] if mask is None else mask & adj[vals[j]]
            rd = reads[i]
            counts = None
            if not rd:
                if mask is None:
                    cand = range(n_host)
                elif single[i] >= 0:
                    cand = nbrs[vals[single[i]]]
                elif i == last and not levels:
                    cand = None  # only their number is needed
                else:
                    cand = list(bits_of(mask))
            elif len(rd) == 1:
                s, d, _ = rd[0]
                first = nodes[s][d]
                if mask is None:
                    cand = first.keys()
                    if i == last:
                        counts = first.values()
                elif single[i] >= 0 and len(nbrs[vals[single[i]]]) < len(first):
                    cand = [x for x in nbrs[vals[single[i]]] if x in first]
                elif mask.bit_count() < len(first):
                    cand = [x for x in bits_of(mask) if x in first]
                else:
                    cand = [x for x in first if mask >> x & 1]
                if counts is None and i == last:
                    counts = [first[x] for x in cand]
            else:
                dicts = sorted((nodes[s][d] for s, d, _ in rd), key=len)
                first, others = dicts[0], dicts[1:]
                if mask is not None and mask.bit_count() < len(first):
                    cand = [x for x in bits_of(mask) if x in first
                            and all(x in o for o in others)]
                else:
                    cand = [x for x in first
                            if (mask is None or mask >> x & 1)
                            and all(x in o for o in others)]
                if i == last:
                    counts = []
                    for x in cand:
                        t = first[x]
                        for o in others:
                            t *= o[x]
                        counts.append(t)
            if i == last:
                i -= 1
                entering = False
                w = weights[last]
                if not levels:
                    if counts is not None:
                        total += w * sum(counts)
                    else:
                        total += w * (mask.bit_count() if cand is None
                                      else len(cand))
                    continue
                if not cand:
                    continue
                node = trie
                for p in upper:
                    sub = node.get(vals[p])
                    if sub is None:
                        sub = node[vals[p]] = {}
                    node = sub
                if counts is None:
                    for x in cand:
                        node[x] = node.get(x, 0) + w
                else:
                    for x, t in zip(cand, counts):
                        node[x] = node.get(x, 0) + w * t
                continue
            iters[i] = iter(cand)
        x = next(iters[i], None)
        if x is None:
            i -= 1
            entering = False
            continue
        w = weights[i]
        for s, d, end in reads[i]:
            if end:
                w *= nodes[s][d][x]
            else:
                nodes[s][d + 1] = nodes[s][d][x]
        vals[i] = x
        weights[i + 1] = w
        i += 1
        entering = True
    return trie if levels else total


# ------------------------------------------------- f-polynomial references


def reference_evaluate(coefficients: tuple[int, ...], x: Fraction) -> Fraction:
    """sum_j coefficients[j] x^j by Horner's rule in Fraction arithmetic."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def reference_derivative_at(coefficients: tuple[int, ...], j: int,
                            x) -> Fraction:
    """j-th derivative of sum_t coefficients[t] x^t at x, each falling
    factorial t (t-1) ... (t-j+1) multiplied out afresh, in Fraction
    arithmetic."""
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    acc = Fraction(0)
    for t in range(j, len(coefficients)):
        ff = 1
        for s in range(j):
            ff *= t - s
        acc += coefficients[t] * ff * Fraction(x) ** (t - j)
    return acc


# ------------------------------------------------------- poisedness oracle


def determinant_poised(rows, d: int) -> bool:
    """Hermite-Birkhoff conditions (value/derivative orders marked in two
    0/1 rows for the nodes -1 and 0) are poised iff the square condition
    matrix on the monomial basis is nonsingular; decided by exact Gaussian
    elimination."""
    nodes = (Fraction(-1), Fraction(0))
    matrix = []
    for node, row in zip(nodes, rows):
        for order, flag in enumerate(row):
            if not flag:
                continue
            entry = []
            for power in range(d + 1):
                if power < order:
                    entry.append(Fraction(0))
                else:
                    coef = Fraction(1)
                    for step in range(order):
                        coef *= power - step
                    entry.append(coef * node ** (power - order))
            matrix.append(entry)
    size = len(matrix)
    assert size == d + 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col]), None)
        if pivot is None:
            return False
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        for r in range(col + 1, size):
            if matrix[r][col]:
                scale = matrix[r][col] / matrix[col][col]
                matrix[r] = [x - scale * y
                             for x, y in zip(matrix[r], matrix[col])]
    return True


# -------------------------------------------------------- planarity oracle


def _has_spanning_k33(g: SmallGraph) -> bool:
    if g.n != 6:
        return False
    adj = g.adj_rows()
    for left in itertools.combinations(range(6), 3):
        right = tuple(v for v in range(6) if v not in left)
        if all(adj[a] >> b & 1 for a in left for b in right):
            return True
    return False


def _has_clique_minor_5(g: SmallGraph) -> bool:
    """K5 minor on at most 6 vertices: five blocks, at most one of size
    two, blocks connected (automatic at these sizes) and pairwise joined."""
    adj = g.adj_rows()
    if g.n < 5:
        return False

    def blocks_ok(blocks):
        for i, bi in enumerate(blocks):
            mask = 0
            for v in bi:
                mask |= adj[v]
            for bj in blocks[i + 1:]:
                if not any(mask >> v & 1 for v in bj):
                    return False
        return True

    for five in itertools.combinations(range(g.n), 5):
        if blocks_ok([(v,) for v in five]):
            return True
    if g.n == 6:
        for a, b in g.edge_pairs():
            rest = [v for v in range(6) if v not in (a, b)]
            if blocks_ok([(a, b)] + [(v,) for v in rest]):
                return True
    return False


def brute_planar(g: SmallGraph) -> bool:
    """Planarity on at most 6 vertices through forbidden minors: with so
    few vertices a K5 minor needs at most one contraction and a K33 minor
    none, so both searches are tiny."""
    if g.n > 6:
        raise ValueError("oracle limited to 6 vertices")
    if g.n < 5:
        return True
    if _has_clique_minor_5(g):
        return False
    if g.n == 6 and _has_spanning_k33(g):
        return False
    return True


# ------------------------------------------------------------------ graph6


def reference_decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge pairs of graph6 text, by unpacking every body
    bit and walking all C(n,2) pairs in the format's order (by j, then i);
    padding bits past the last pair are never read."""
    n, body = _graph6_body(text)
    bits = []
    for d in body:
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append(d >> s6 & 1)
    pairs = []
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                pairs.append((i, j))
            t += 1
    return n, pairs


def graph6_text(n: int, bits: list[int]) -> str:
    """graph6 text of n vertices from their pair bits in the format's
    order (by j, then i), zero-padded to a multiple of six; bits past the
    last pair are written as given."""
    if n <= 62:
        head = chr(n + 63)
    elif n <= MAX_HOST_VERTICES:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for graph6")
    bits = bits + [0] * (-len(bits) % 6)
    body = ""
    for t in range(0, len(bits), 6):
        val = 0
        for b in bits[t:t + 6]:
            val = val << 1 | b
        body += chr(val + 63)
    return head + body


def reference_graph6(g: SmallGraph) -> str:
    """graph6 text of a small loop-free graph, one pair bit at a time."""
    return graph6_text(
        g.n, [int(g.has_edge(i, j)) for j in range(1, g.n) for i in range(j)])


def host_graph6(host: HostGraph) -> str:
    """graph6 text of a host, one pair bit at a time from its adjacency
    masks."""
    adj = host.adj_bits
    return graph6_text(
        host.n, [adj[j] >> i & 1 for j in range(1, host.n) for i in range(j)])


def edge_list_text(g) -> str:
    """The edge-list text of a SmallGraph or a HostGraph, as
    load_small_graph and load_host_graph read it: "n m", then one "u v"
    line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edge_pairs()]
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- reports


def _json_safe(value):
    """ints as decimal strings, rationals as "p/q", containers recursed."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def reference_emit(report) -> str:
    """The standard output the CLI writes for report."""
    return json.dumps(_json_safe(report), indent=2) + "\n"


# -------------------------------------------------------------- generators


def random_small_graph(rng: random.Random, n: int,
                       p: float = 0.5) -> SmallGraph:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < p]
    return SmallGraph.from_edges(n, pairs)


def random_host(rng: random.Random, n: int, p: float = 0.5) -> HostGraph:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < p]
    return HostGraph.from_edges(n, pairs)


def random_bipartite_host(rng: random.Random, left: int, right: int,
                          p: float = 0.5) -> HostGraph:
    pairs = [(a, left + b) for a in range(left) for b in range(right)
             if rng.random() < p]
    return HostGraph.from_edges(left + right, pairs)


def brute_clique_number(g: SmallGraph) -> int:
    """Largest clique by subset enumeration."""
    best = 0
    for size in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return size
    return best


def contract_edge(g: SmallGraph, u: int, v: int) -> SmallGraph:
    """Merge v into u, dropping loops and parallel edges."""
    assert u < v and g.has_edge(u, v)
    relabel = [w if w < v else w - 1 for w in range(g.n)]
    edges = set()
    for a, b in g.edge_pairs():
        a2 = relabel[u if a == v else a]
        b2 = relabel[u if b == v else b]
        if a2 != b2:
            edges.add((min(a2, b2), max(a2, b2)))
    return SmallGraph.from_edges(g.n - 1, sorted(edges))


def brute_largest_clique_minor(g: SmallGraph) -> int:
    """Recursive oracle: the largest clique minor of g equals the larger of
    its clique number and the best value over single-edge contractions."""
    best = brute_clique_number(g)
    for u, v in g.edge_pairs():
        best = max(best, brute_largest_clique_minor(contract_edge(g, u, v)))
    return best


# -------------------------------------------------------- extension counts


def extension_counts_by_class(h: SmallGraph, ell: int) -> dict[tuple, int]:
    """How often each isomorphism class arises by adding edges to h until
    it has ell edges, keyed by canonical key.  Counts labeled supersets of
    the given labeled graph, so the values sum to C(d - #E(h), ell - #E(h))."""
    d = pair_count(h.n)
    m = h.edge_count
    if ell < m or ell > d:
        return {}
    free = [b for b in range(d) if not h.edges >> b & 1]
    if comb(len(free), ell - m) > 10 ** 6:
        raise ValueError("extension enumeration too large")
    out: dict[tuple, int] = {}
    for extra in itertools.combinations(free, ell - m):
        mask = h.edges
        for b in extra:
            mask |= 1 << b
        key = canon_key(SmallGraph(h.n, mask))
        out[key] = out.get(key, 0) + 1
    return out


def extension_count(h: SmallGraph, ell: int) -> int:
    """Total count of ell-edge supersets of h inside K_n, summed over the
    classes they land in; equals C(d - #E(h), ell - #E(h))."""
    return sum(extension_counts_by_class(h, ell).values())


# ---------------------------------------------------------- catalog builder


def vertex_key(g: SmallGraph, v: int) -> tuple[int, int]:
    """(degree, sum of the neighbors' degrees) of vertex v of g."""
    rows = g.adj_rows()
    return (rows[v].bit_count(),
            sum(rows[u].bit_count() for u in bits_of(rows[v])))


def unpruned_catalog_classes(k: int) -> dict[int, int]:
    """Canonical edge bitset -> #Aut of every class on k vertices: each
    class on k - 1 vertices, from this function, extended by one neighbor
    mask per orbit of its automorphism group, with no vertex-key test."""
    parents = [SmallGraph(0)] if k == 1 else [
        SmallGraph(k - 1, edges) for edges in unpruned_catalog_classes(k - 1)]
    found = {}
    for parent in parents:
        pairs = parent.edge_pairs()
        for mask in _orbit_representatives(range(1 << k - 1),
                                           automorphism_generators(parent)):
            g = SmallGraph.from_edges(
                k, pairs + [(u, k - 1) for u in bits_of(mask)])
            found.setdefault(canonical_form(g).edges, automorphism_count(g))
    return found


# ------------------------------------------------------------ deletion maps


def _class_positions(k: int) -> dict[int, int]:
    return {edges: i for i, edges in enumerate(build_catalog(k).edges)}


def reference_edge_deletions(k: int) -> tuple[tuple[int, ...], ...]:
    """catalog.edge_deletions(k), every class found by canonical form."""
    pos = _class_positions(k)
    return tuple(
        tuple(pos[canonical_form(g.without_edge(i, j)).edges]
              for i, j in g.edge_pairs())
        for g in build_catalog(k).graphs())


def reference_vertex_deletions(k: int) -> tuple[tuple[int, ...], ...]:
    """catalog.vertex_deletions(k), every class found by canonical form."""
    pos = _class_positions(k - 1)
    return tuple(
        tuple(pos[canonical_form(g.delete_vertex(v)).edges]
              for v in range(k))
        for g in build_catalog(k).graphs())


def reference_map_row_rule(suffix: str, cats):
    """The load rule of one row of the map with that suffix over the
    catalogs cats (as ClassMap.compute gets them), (index, row) -> bool:
    an edge row has e(C) entries, each a class with e(C) - 1 edges; a
    vertex row has k entries, the one for v a (k-1)-class with
    e(C) - deg(v) edges; a quotient row alternates global ids of classes
    on at most k vertices with nonzero sums and ends with its own class
    and sum 1."""
    cat = cats[-1]

    def edge_count(c, i):
        return c.edges[i].bit_count() if 0 <= i < c.class_count else -1

    if suffix == "edges":
        return lambda i, row: (
            len(row) == cat.edges[i].bit_count()
            and all(edge_count(cat, c) == len(row) - 1 for c in row))
    if suffix == "vertices":
        below = cats[0]
        return lambda i, row: len(row) == cat.k and all(
            edge_count(below, c) == cat.edges[i].bit_count() - d
            for c, d in zip(row, cat.graph(i).degrees()))
    assert suffix == "quotients", suffix
    first = sum(c.class_count for c in cats[:-1])
    total = first + cat.class_count
    return lambda i, row: (
        len(row) % 2 == 0 and row[-2:] == (first + i, 1)
        and all(0 <= c < total for c in row[0::2])
        and 0 not in row[1::2])


# ------------------------------------------------------- partition lattice


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every set partition of range(n), grown element by element: x joins
    each earlier block in turn, then opens a new one.  Blocks are listed in
    order of their least element."""
    parts: list[tuple[tuple[int, ...], ...]] = [()]
    for x in range(n):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append(p[:i] + (p[i] + (x,),) + p[i + 1:])
            grown.append(p + ((x,),))
        parts = grown
    return parts


def partition_moebius(blocks) -> int:
    """mu(discrete, rho) = prod over blocks B of (-1)^(|B|-1) (|B|-1)!."""
    mu = 1
    for block in blocks:
        mu *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
    return mu


def quotient(g: SmallGraph, blocks) -> SmallGraph | None:
    """Contract each block to one vertex; None when a block holds an edge,
    since that quotient has a loop and so no map into a simple host.
    Blocks are ordered by least element."""
    blocks = sorted(blocks, key=min)
    idx = {v: i for i, block in enumerate(blocks) for v in block}
    assert sorted(idx) == list(range(g.n)), "blocks must partition g"
    m = len(blocks)
    edges = 0
    for a, b in g.edge_pairs():
        ia, ib = idx[a], idx[b]
        if ia == ib:
            return None
        edges |= 1 << pair_index(m, ia, ib)
    return SmallGraph(m, edges)


def reference_quotient_row(g: SmallGraph) -> tuple:
    """g's row of hombasis.quotient_rows over every set partition, each
    class named by its canonical key: quotient, drop the partitions with an
    edge inside a block, sum mu per canonical key in first-seen order, drop
    zero sums."""
    row: dict[tuple, int] = {}
    for rho in set_partitions(g.n):
        q = quotient(g, rho)
        if q is None:
            continue
        key = canon_key(q)
        row[key] = row.get(key, 0) + partition_moebius(rho)
    return tuple((key, mu) for key, mu in row.items() if mu)


# ------------------------------------------------ homomorphism-basis references


def reference_spanning_counts(phi, g: SmallGraph) -> list[int]:
    """Entry r: the spanning subgraphs of g that satisfy phi and miss
    exactly r of its edges, by evaluating phi on all 2^e(g) of them."""
    edges = [1 << b for b in bits_of(g.edges)]
    out = [0] * (len(edges) + 1)
    for kept in itertools.product((False, True), repeat=len(edges)):
        mask = sum(bit for bit, keep in zip(edges, kept) if keep)
        if phi(SmallGraph(g.n, mask)):
            out[kept.count(False)] += 1
    return out


def _signed_subset_transform(vals: list[int], d: int) -> None:
    """In place: vals[A] <- sum over subsets L of A of (-1)^(|A|-|L|) vals[L]."""
    for b in range(d):
        bit = 1 << b
        step = bit << 1
        for base in range(0, len(vals), step):
            for a in range(base + bit, base + step):
                vals[a] -= vals[a - bit]


def labelled_hom_vector(phi, k: int) -> HomVector:
    """hom_vector by the labeled route: phi on all 2^C(k,2) labeled
    k-vertex graphs, the signed subset transform over their edge sets,
    a(C) = s(C)/#Aut(C) per class, then every set partition of the k
    vertices with its Moebius weight, dropping the partitions with an edge
    inside a block."""
    d = pair_count(k)
    vals = [1 if phi(SmallGraph(k, mask)) else 0 for mask in range(1 << d)]
    _signed_subset_transform(vals, d)
    acc: dict[tuple, Fraction] = {}
    reps: dict[tuple, SmallGraph] = {}
    partitions = [(rho, partition_moebius(rho)) for rho in set_partitions(k)]
    cat = build_catalog(k)
    for g, aut in zip(cat.graphs(), cat.auts):
        s = vals[g.edges]
        if s == 0:
            continue
        a = Fraction(s, aut)
        for rho, mu in partitions:
            q = quotient(g, rho)
            if q is None:
                continue
            form = canonical_form(q)
            key = (form.n, form.edges)
            reps.setdefault(key, SmallGraph(form.n, form.edges))
            acc[key] = acc.get(key, Fraction(0)) + a * mu
    entries = sorted(((reps[key], c) for key, c in acc.items() if c),
                     key=lambda e: (e[0].edge_count, e[0].to_graph6()))
    return HomVector(k, tuple(entries))


def k_vertex_coefficient(phi, g: SmallGraph) -> Fraction:
    """Coefficient of a k-vertex pattern without any subset transform:
    a(K) = sum over satisfying classes H of
    (-1)^(e(K)-e(H)) * ext_H(K) / #Aut(H), where ext_H(K) counts the edge
    supersets of a fixed copy of H that are isomorphic to K."""
    target = canon_key(g)
    m_k = g.edge_count
    total = Fraction(0)
    cat = build_catalog(g.n)
    for h, aut in zip(cat.graphs(), cat.auts):
        if h.edge_count > m_k or not phi(h):
            continue
        ext = extension_counts_by_class(h, m_k).get(target, 0)
        if ext:
            sign = -1 if (m_k - h.edge_count) % 2 else 1
            total += Fraction(sign * ext, aut)
    return total


# ---------------------------------------------- flag-verification reference


def labelled_verify_flags(phi, k_max: int) -> tuple[FlagViolation, ...]:
    """verify_flags by evaluating phi on every labeled one-edge and
    one-vertex deletion of each satisfying catalog representative,
    instead of looking the deletions up in the catalog's deletion maps."""
    violations: list[FlagViolation] = []

    def check(flag, g, ok, detail):
        if not ok:
            violations.append(FlagViolation(flag, g.to_graph6(), detail))

    for k in range(1, k_max + 1):
        cat = build_catalog(k)
        by_m: dict[int, set[bool]] = {}
        for g in cat.graphs():
            val = phi(g)
            by_m.setdefault(g.edge_count, set()).add(val)
            if phi.sparse_bound is not None and val:
                check(f"sparse({phi.sparse_bound})", g,
                      g.edge_count <= phi.sparse_bound * g.n,
                      f"{g.edge_count} edges on {g.n} vertices")
            if not val:
                continue
            if phi.monotone:
                for i, j in g.edge_pairs():
                    check("monotone", g, phi(g.without_edge(i, j)),
                          f"fails after deleting edge ({i},{j})")
                for v in range(g.n):
                    check("monotone", g, phi(g.delete_vertex(v)),
                          f"fails after deleting vertex {v}")
            if phi.hereditary:
                for v in range(g.n):
                    check("hereditary", g, phi(g.delete_vertex(v)),
                          f"fails after deleting vertex {v}")
        if phi.edge_count_only:
            for m, vals in sorted(by_m.items()):
                if len(vals) > 1:
                    wit = next(g for g in cat.graphs()
                               if g.edge_count == m)
                    violations.append(FlagViolation(
                        "edge-count-only", wit.to_graph6(),
                        f"value not constant on ({k},{m}) classes"))
    return tuple(violations)
