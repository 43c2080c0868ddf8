"""Canonical forms, automorphism counts and automorphism generators for
small graphs.

The canonical labeling is found by iterated color refinement followed by a
backtracking search over the refinement-respecting orderings, minimizing
the sequence of adjacency words (one word per position).

Refinement splits each color cell by one packed integer per vertex, with
one field per part of each cell that split in the round before, all parts
but the last, holding 31 minus the vertex's neighbor count in that part;
the first round takes every degree cell but the last.  Vertices of one
cell have equal degree and equal counts in every older cell, so this
orders them as their sorted neighbor-color tuples would, and every round
induces the same ordered partition as refining by those tuples.  Dropping
the last part, Hopcroft's "all but one" rule, changes neither: within a
cell, a vertex's counts in the parts of a split cell X sum to its count
in X, which the whole cell shares, so two vertices that agree on X's other
parts agree on the last one too, and the first field where their keys
differ is never the dropped one.

Twins let most graphs the catalog builder meets skip the search.  Two
vertices u, v of one cell are twins when N(u) - {v} = N(v) - {u}, so
swapping them is an automorphism, and it keeps every cell in place.  When
every cell is made of twins (a clique or an independent set whose rows
agree outside it), every ordering the cells allow has the same key.  The
ordering returned lists each cell in increasing vertex order, the
automorphism count is the product of the cells' factorials, and the swaps
of consecutive vertices of each cell generate the group.  A discrete
refinement is the case where every cell is a single vertex.

Otherwise the search keeps each candidate's word in per-vertex
accumulators.  At every node the first candidate is searched in full and
each later one only against the best key so far: a prefix above it is
pruned, a prefix below it means a new best, searched in full, and the
first leaf equal to it proves the candidate an automorphic image of the
best one, which then adds the best one's count without further search.  A
candidate that is a twin of the best one is such an image by the swap of
the two, so it adds the count without being searched at all.  Those leaves
and swaps are the automorphisms that automorphism_generators returns.

_canonical_data is the one canonicaliser: from neighbor rows it gives
the canonical ordering, edge bitset (graphs.pair_bits of the rows in
canonical order) and automorphism count, with no cache and no graph
object.  The catalog builder calls it on each extension's rows, and
canonical_form, canon_key and automorphism_count call it on the graph's.
Nothing is cached: the one caller that repeats lookups,
GraphCatalog.index_of, names a catalog representative by its edge bitset
without coming here.

refinement_invariant condenses the stable refinement into a value that
isomorphic graphs share, so a catalog can settle most lookups without a
search: a class whose invariant no other class of its catalog has is the
only candidate for a graph with that invariant.

No hashing shortcuts: equality of canonical forms is exact isomorphism on
the supported range, and a lookup settled by the invariant is a proof too,
since any graph whose invariant several classes share goes to the search.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .graphs import SmallGraph, bits_of, pair_bits

# Always empty; read only by bench/child.py (len(canon._cache)); goes
# with ROADMAP item 1.
_cache: dict = {}

# Bits per neighbor-count field; a count is at most 15, so 31 - count
# never borrows from the field before it.
_FIELD = 5


class CanonicalForm(NamedTuple):
    """Canonical edge bitset plus one relabeling that achieves it."""

    n: int
    edges: int
    relabeling: tuple[int, ...]


def _refined_cells(n: int, rows: list[int]) -> list[int]:
    """Ordered color cells, as vertex bitmasks, of the stable refinement
    of the degree coloring."""
    groups: dict[int, int] = {}
    for v in range(n):
        s = rows[v].bit_count()
        groups[s] = groups.get(s, 0) | 1 << v
    cells = [groups[s] for s in sorted(groups)]
    # A vertex's counts in the degree cells sum to its degree, so the last
    # cell's count follows from the others within a cell.
    fresh = cells[:-1]
    while fresh and len(cells) < n:
        split = []
        new_fresh = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups = {}
            for v in bits_of(cell):
                r = rows[v]
                s = 0
                for m in fresh:
                    s = s << _FIELD | 31 - (r & m).bit_count()
                groups[s] = groups.get(s, 0) | 1 << v
            if len(groups) == 1:
                split.append(cell)
            else:
                parts = [groups[s] for s in sorted(groups)]
                split += parts
                new_fresh += parts[:-1]
        cells, fresh = split, new_fresh
    return cells


def refinement_invariant(g: SmallGraph) -> tuple[int, ...]:
    """(n, edge count), then for each cell of _refined_cells in
    order its size and one representative's neighbor count in every cell.

    The value is an isomorphism invariant.  Refinement never looks at
    vertex names, so relabeling g maps its cells onto the cells of the
    relabeled graph in the same order.  The stable refinement is
    equitable: all vertices of a cell have equal neighbor counts in each
    cell, so the representative chosen does not matter."""
    n = g.n
    rows = g.adj_rows()
    cells = _refined_cells(n, rows)
    inv = [n, g.edges.bit_count()]
    for cell in cells:
        r = rows[(cell & -cell).bit_length() - 1]
        inv.append(cell.bit_count())
        inv += [(r & m).bit_count() for m in cells]
    return tuple(inv)


_ABOVE, _BELOW = 1, -1


def _canonical_search(n, rows, cells, gens=None):
    """Minimize the position-by-position adjacency words over all orderings
    compatible with the refinement cells.  Returns (order, aut_count);
    appends automorphisms (image of each vertex) to gens when given."""
    # A cell of twins shares one open row (an independent cell) or one
    # closed row (a clique cell); aut drops to 0 at the first other cell.
    # A first vertex with a neighbor inside the cell rules out the open
    # row, and one without rules out the closed row.
    blocks = []
    aut = 1
    for cell in cells:
        blk = bits_of(cell)
        if aut and len(blk) > 1:
            r = rows[blk[0]]
            if r & cell:
                closed = r | 1 << blk[0]
                twins = all(rows[v] | 1 << v == closed for v in blk)
            else:
                twins = all(rows[v] == r for v in blk)
            aut = aut * factorial(len(blk)) if twins else 0
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
    nbrs = list(map(bits_of, rows))
    # acc[v] has bit n-1-t set when the vertex at position t neighbors v,
    # so v's word at position p is acc[v] >> (n - p).
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
            w = acc[v] >> shift
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


def _canonical_data(n: int, rows: list[int]
                    ) -> tuple[tuple[int, ...], int, int]:
    """(ordering, edges, aut) of the graph on n vertices with neighbor
    bitmasks rows: ordering[pos] is the vertex at canonical position pos,
    edges the canonical edge bitset and aut the automorphism count.  No
    cache and no graph object."""
    ordering, aut = _canonical_search(n, rows, _refined_cells(n, rows))
    edges = pair_bits([rows[v] for v in ordering], [1 << v for v in ordering])
    return ordering, edges, aut


def canonical_form(g: SmallGraph) -> CanonicalForm:
    ordering, edges, _ = _canonical_data(g.n, g.adj_rows())
    rel = [0] * g.n
    for pos, v in enumerate(ordering):
        rel[v] = pos
    return CanonicalForm(g.n, edges, tuple(rel))


def canon_key(g: SmallGraph) -> tuple[int, int]:
    return (g.n, _canonical_data(g.n, g.adj_rows())[1])


def automorphism_count(g: SmallGraph) -> int:
    return _canonical_data(g.n, g.adj_rows())[2]


def automorphism_generators(g: SmallGraph) -> list[tuple[int, ...]]:
    """Automorphisms of g that generate its automorphism group, each as
    the image of every vertex; empty when the group is trivial."""
    if g.n == 0:
        return []
    rows = g.adj_rows()
    gens: list[tuple[int, ...]] = []
    _canonical_search(g.n, rows, _refined_cells(g.n, rows), gens)
    return gens


def is_isomorphic(g1: SmallGraph, g2: SmallGraph) -> bool:
    return canon_key(g1) == canon_key(g2)
