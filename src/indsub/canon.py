"""Canonical forms, automorphism counts and automorphism generators for
small graphs.

The canonical labeling is found by iterated color refinement followed by a
backtracking search over the refinement-respecting orderings, minimizing
the sequence of adjacency words (one word per position).

Refinement splits each color cell by one packed integer per vertex, with
one field per cell split off in the round before holding 31 minus the
vertex's neighbor count in that cell.  Vertices of one cell have equal
degree and equal counts in every older cell, so this orders them as their
sorted neighbor-color tuples would, and every round induces the same
ordered partition as refining by those tuples.

Twins let most graphs the catalog builder meets skip the search.  Two
vertices u, v of one cell are twins when N(u) - {v} = N(v) - {u}; a cell
carries one loop mark, so swapping them is an automorphism, and it keeps
every cell in place.  When every cell is made of twins (a clique or an
independent set whose rows agree outside it), every ordering the cells
allow has the same key.  The ordering returned lists each cell in
increasing vertex order, the automorphism count is the product of the
cells' factorials, and the swaps of consecutive vertices of each cell
generate the group.  A discrete refinement is the case where every cell
is a single vertex.

Otherwise the search keeps each candidate's word in per-vertex
accumulators.  At every node the first candidate is searched in full and
each later one only against the best key so far: a prefix above it is
pruned, a prefix below it means a new best, searched in full, and the
first leaf equal to it proves the candidate an automorphic image of the
best one, which then adds the best one's count without further search.  A
candidate that is a twin of the best one is such an image by the swap of
the two, so it adds the count without being searched at all.  Those leaves
and swaps are the automorphisms that automorphism_generators returns.

_canonical_data is the one canonicaliser: from neighbor rows it gives the
canonical ordering, edge bitset and automorphism count, with no cache and
no graph object.  The catalog builder calls it on each extension's rows;
canonical_form, canon_key and automorphism_count reach it through
_canonical_of, which keeps a bounded cache of CanonicalForms.

refinement_invariant condenses the stable refinement into a value that
isomorphic graphs share, so a catalog can settle most lookups without a
search: a class whose invariant no other class of its catalog has is the
only candidate for a graph with that invariant.

No hashing shortcuts: equality of canonical forms is exact isomorphism on
the supported range, and a lookup settled by the invariant is a proof too,
since any graph whose invariant several classes share goes to the search.
Loop marks participate in the vertex colors and in the canonical encoding.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from math import factorial

from .graphs import SmallGraph, bits_of, pair_table

# Canonical data of the graphs that canonical_form, canon_key and
# automorphism_count canonicalised last, at most CACHE_CAP of them; the
# oldest is dropped first.  The catalog builder calls _canonical_data
# directly, since it meets none of its 14,655 extensions twice, and so
# fills no entry.
CACHE_CAP = 1 << 12
_cache: OrderedDict[tuple[int, int, int],
                    tuple["CanonicalForm", int]] = OrderedDict()

# Bits per neighbor-count field; a count is at most 15, so 31 - count
# never borrows from the field before it.
_FIELD = 5


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical edge/loop bitsets plus one relabeling that achieves them."""

    n: int
    edges: int
    loops: int
    relabeling: tuple[int, ...]

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.n, self.edges, self.loops)

    def graph(self) -> SmallGraph:
        return SmallGraph(self.n, self.edges, self.loops)


def _refined_cells(n: int, rows: list[int], loops: int) -> list[int]:
    """Ordered color cells, as vertex bitmasks, of the stable refinement
    of the (loop mark, degree) coloring."""
    groups: dict[int, int] = {}
    for v in range(n):
        s = (loops >> v & 1) << _FIELD | rows[v].bit_count()
        groups[s] = groups.get(s, 0) | 1 << v
    cells = [groups[s] for s in sorted(groups)]
    # Every cell has equal neighbor counts in each cell of the round
    # before, so only the cells split off in the last round can tell its
    # vertices apart; the other fields would be equal within the cell.
    fresh = cells if len(cells) > 1 else []
    while fresh and len(cells) < n:
        split = []
        new_fresh = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                r = rows[low.bit_length() - 1]
                s = 0
                for m in fresh:
                    s = s << _FIELD | 31 - (r & m).bit_count()
                groups[s] = groups.get(s, 0) | low
            if len(groups) == 1:
                split.append(cell)
            else:
                parts = [groups[s] for s in sorted(groups)]
                split.extend(parts)
                new_fresh.extend(parts)
        cells, fresh = split, new_fresh
    return cells


def refinement_invariant(g: SmallGraph) -> tuple[int, ...]:
    """(n, edge count, loop count), then for each cell of _refined_cells in
    order its size and one representative's neighbor count in every cell.

    The value is an isomorphism invariant.  Refinement never looks at
    vertex names, so relabeling g maps its cells onto the cells of the
    relabeled graph in the same order.  The stable refinement is
    equitable: all vertices of a cell have equal neighbor counts in each
    cell, so the representative chosen does not matter."""
    n = g.n
    rows = g.adj_rows()
    cells = _refined_cells(n, rows, g.loops)
    inv = [n, g.edges.bit_count(), g.loops.bit_count()]
    for cell in cells:
        r = rows[(cell & -cell).bit_length() - 1]
        inv.append(cell.bit_count())
        inv += [(r & m).bit_count() for m in cells]
    return tuple(inv)


_ABOVE, _BELOW = 1, -1


def _canonical_search(n, rows, loops, cells, gens=None):
    """Minimize the position-by-position adjacency words over all orderings
    compatible with the refinement cells.  Returns (order, aut_count);
    appends automorphisms (image of each vertex) to gens when given."""
    # A cell of twins shares one open row (an independent cell) or one
    # closed row (a clique cell); aut drops to 0 at the first other cell.
    blocks = []
    aut = 1
    for cell in cells:
        if cell & (cell - 1):
            blk = [v for v in range(n) if cell >> v & 1]
            if aut:
                r = rows[blk[0]]
                closed = r | 1 << blk[0]
                if all(rows[v] == r for v in blk) \
                        or all(rows[v] | 1 << v == closed for v in blk):
                    aut *= factorial(len(blk))
                else:
                    aut = 0
        else:
            blk = [cell.bit_length() - 1]
        blocks.append(blk)
    if aut:
        # The search would meet this ordering first, and automorphisms
        # keep the ordered cells, so Aut is the product of the cells'
        # symmetric groups.
        if gens is not None:
            for blk in blocks:
                for a, b in zip(blk, blk[1:]):
                    perm = list(range(n))
                    perm[a], perm[b] = b, a
                    gens.append(tuple(perm))
        return tuple(v for blk in blocks for v in blk), aut
    posblock = [blk for blk in blocks for _ in blk]
    nbrs = [[u for u in range(n) if r >> u & 1] for r in rows]
    loop = [(loops >> v) & 1 for v in range(n)]
    # acc[v] has bit n-1-t set when the vertex at position t neighbors v,
    # so v's word at position p is loop[v] << p | acc[v] >> (n - p).
    acc = [0] * n
    used = [False] * n
    order: list[int] = []
    words: list[int] = []

    def candidates(p):
        shift = n - p
        best_w = -1
        cand: list[int] = []
        for v in posblock[p]:
            if used[v]:
                continue
            w = loop[v] << p | acc[v] >> shift
            if not cand or w < best_w:
                best_w = w
                cand = [v]
            elif w == best_w:
                cand.append(v)
        return best_w, cand

    def search(p):
        """(least key, leaves reaching it, first such leaf) below here."""
        if p == n:
            return tuple(words), 1, tuple(order)
        w, cand = candidates(p)
        words.append(w)
        bit = 1 << (n - 1 - p)
        key = None
        for v in cand:
            if key is not None and \
                    rows[v] & ~(1 << holder) == rows[holder] & ~(1 << v):
                # v is a twin of the candidate that holds the key, so
                # swapping them is an automorphism that fixes the prefix
                # and maps that candidate's subtree onto v's.
                total += count
                if gens is not None:
                    perm = list(range(n))
                    perm[v], perm[holder] = holder, v
                    gens.append(tuple(perm))
                continue
            used[v] = True
            order.append(v)
            for u in nbrs[v]:
                acc[u] |= bit
            if key is None:
                key, count, leaf = search(p + 1)
                total = count
                holder = v
            else:
                found = bounded(p + 1, key)
                if found == _BELOW:
                    key, count, leaf = search(p + 1)
                    total = count
                    holder = v
                elif found != _ABOVE:
                    total += count
                    if gens is not None:
                        perm = [0] * n
                        for a, b in zip(leaf, found):
                            perm[a] = b
                        gens.append(tuple(perm))
            used[v] = False
            order.pop()
            for u in nbrs[v]:
                acc[u] ^= bit
        words.pop()
        return key, total, leaf

    def bounded(p, key):
        """Compare the leaves below here with key: _BELOW as soon as a
        prefix falls below it, the first leaf equal to it, else _ABOVE."""
        if p == n:
            return tuple(order)
        w, cand = candidates(p)
        if w != key[p]:
            return _BELOW if w < key[p] else _ABOVE
        bit = 1 << (n - 1 - p)
        for v in cand:
            used[v] = True
            order.append(v)
            for u in nbrs[v]:
                acc[u] |= bit
            found = bounded(p + 1, key)
            used[v] = False
            order.pop()
            for u in nbrs[v]:
                acc[u] ^= bit
            if found != _ABOVE:
                return found
        return _ABOVE

    try:
        _, aut, leaf = search(0)
    finally:
        # search and bounded reach themselves through their closure cells;
        # unbinding them leaves no cycle for the collector.
        search = bounded = None
    return leaf, aut


def _canonical_data(n: int, rows: list[int], loops: int
                    ) -> tuple[tuple[int, ...], int, int]:
    """(ordering, edges, aut) of the graph on n vertices with neighbor
    bitmasks rows and loop marks loops: ordering[pos] is the vertex at
    canonical position pos, edges the canonical edge bitset and aut the
    automorphism count.  No cache and no graph object."""
    ordering, aut = _canonical_search(n, rows, loops,
                                      _refined_cells(n, rows, loops))
    edges = 0
    bit = 1
    for i, j in pair_table(n):
        if rows[ordering[i]] >> ordering[j] & 1:
            edges |= bit
        bit <<= 1
    return ordering, edges, aut


def _canonical_of(g: SmallGraph) -> tuple[CanonicalForm, int]:
    """g's canonical form and automorphism count, through the cache."""
    key = (g.n, g.edges, g.loops)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    while len(_cache) >= CACHE_CAP:
        _cache.popitem(last=False)
    ordering, edges, aut = _canonical_data(g.n, g.adj_rows(), g.loops)
    rel = [0] * g.n
    for pos, v in enumerate(ordering):
        rel[v] = pos
    loops = 0
    for v in bits_of(g.loops):
        loops |= 1 << rel[v]
    result = _cache[key] = (CanonicalForm(g.n, edges, loops, tuple(rel)),
                            aut)
    return result


def canonical_form(g: SmallGraph) -> CanonicalForm:
    return _canonical_of(g)[0]


def canon_key(g: SmallGraph) -> tuple[int, int, int]:
    return _canonical_of(g)[0].key


def automorphism_count(g: SmallGraph) -> int:
    return _canonical_of(g)[1]


def automorphism_generators(g: SmallGraph) -> list[tuple[int, ...]]:
    """Automorphisms of g that generate its automorphism group, each as
    the image of every vertex; empty when the group is trivial.  Not
    cached: every call repeats the search."""
    if g.n == 0:
        return []
    rows = g.adj_rows()
    gens: list[tuple[int, ...]] = []
    _canonical_search(g.n, rows, g.loops,
                      _refined_cells(g.n, rows, g.loops), gens)
    return gens


def is_isomorphic(g1: SmallGraph, g2: SmallGraph) -> bool:
    return canon_key(g1) == canon_key(g2)
