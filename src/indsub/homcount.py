"""Exact homomorphism counting into simple host graphs.

count_hom runs dynamic programming over a tree decomposition of the
pattern, one iterative bottom-up pass over the bags.  A bag's table counts
the homomorphisms of the pattern below it per assignment of its interface
with the parent bag, stored as a trie keyed in the parent's vertex order.
A bag's own assignments are enumerated as a join: each vertex's candidates
are the host neighbourhoods of its pattern-neighbours already assigned in
the bag, intersected with the keys of every child trie at that child's
current prefix.  A vertex with one assigned pattern-neighbour and no child
trie takes that neighbour's host adjacency list as it is.  In the
decompositions tree_decomposition builds, every other vertex of a bag is
joined to the bag's eliminated vertex, which is assigned first, by a
pattern edge or by a fill edge that lies in some child's scope, so only
that first vertex may range over all host vertices.

Join orders are fixed top-down, so each bag knows the order its parent
keys it in, and each bag's last-assigned vertex writes the bag's table
straight into the trie the parent will read.  A bag that shares a vertex
with its parent always assigns the one its parent keys deepest last, so
that write has two forms only: the root, or a bag sharing nothing, adds
its candidates' total to a scalar, and every other bag walks the upper
trie levels once per prefix and adds each candidate at the deepest one.
No table is built in the bag's own order and re-keyed.

The cost is bounded by n^(tw+1) but follows the child-table sizes, which
are far smaller on sparse hosts.  Treewidth is computed exactly by the
elimination-ordering DP over vertex subsets, which is fine for the pattern
sizes this package handles (k <= 8, decomposition solver capped at 12
vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InternalConsistencyError
from .graphs import HostGraph, SmallGraph, bits_of

MAX_TREEWIDTH_N = 12


def _reachability_cost(rows, eliminated, v):
    """Q(S, v): neighbors of v outside S reachable through S, as a bitmask."""
    seen = 1 << v
    frontier = rows[v]
    out = 0
    while frontier:
        fresh = frontier & ~seen
        seen |= fresh
        frontier = 0
        for u in bits_of(fresh):
            if eliminated >> u & 1:
                frontier |= rows[u]
            else:
                out |= 1 << u
    return out


def _tw_table(g: SmallGraph) -> list[int]:
    """T[S] = min over orders eliminating exactly S first of the max
    back-degree incurred."""
    n = g.n
    if n > MAX_TREEWIDTH_N:
        raise ValueError(f"treewidth solver handles at most {MAX_TREEWIDTH_N} vertices")
    if g.loops:
        raise ValueError("treewidth is defined here for loop-free graphs")
    rows = g.adj_rows()
    T = [0] * (1 << n)
    for S in range(1, 1 << n):
        best = n
        for v in bits_of(S):
            prev = S & ~(1 << v)
            q = _reachability_cost(rows, prev, v).bit_count()
            cost = T[prev] if T[prev] > q else q
            if cost < best:
                best = cost
        T[S] = best
    return T


def exact_treewidth(g: SmallGraph) -> int:
    if g.n == 0:
        return -1
    return _tw_table(g)[(1 << g.n) - 1]


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted decomposition as a parent-pointer forest of bags."""

    graph: SmallGraph
    bags: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]       # parent[i] = -1 for a root

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def validate(self) -> None:
        g = self.graph
        n = g.n
        m = len(self.bags)
        if len(self.parent) != m or not all(-1 <= p < m for p in self.parent):
            raise InternalConsistencyError("parent pointers do not match the bags")
        for b in range(m):
            # a chain of parents longer than the bag count has a cycle
            up = b
            for _ in range(m):
                up = self.parent[up]
                if up == -1:
                    break
            else:
                raise InternalConsistencyError("parent pointers form a cycle")
        covered = [False] * n
        for bag in self.bags:
            for v in bag:
                if not 0 <= v < n:
                    raise InternalConsistencyError("bag vertex out of range")
                covered[v] = True
        if n and not all(covered):
            raise InternalConsistencyError("decomposition misses a vertex")
        for i, j in g.edge_pairs():
            if not any(i in bag and j in bag for bag in self.bags):
                raise InternalConsistencyError(f"edge ({i},{j}) not covered by any bag")
        # the bags holding any fixed vertex must form one subtree: exactly
        # one of them may have its parent outside the holder set
        for v in range(n):
            holders = {b for b, bag in enumerate(self.bags) if v in bag}
            anchors = [b for b in holders
                       if self.parent[b] == -1 or self.parent[b] not in holders]
            if len(anchors) > 1:
                raise InternalConsistencyError(
                    f"bags containing vertex {v} are disconnected")


def tree_decomposition(g: SmallGraph) -> TreeDecomposition:
    """Width-optimal rooted decomposition recovered from the treewidth DP:
    peel an optimal elimination order off the table, simulate fill-in, and
    emit one bag per vertex with its higher fill-neighbors."""
    n = g.n
    if n == 0:
        return TreeDecomposition(g, ((),), (-1,))
    rows = g.adj_rows()
    T = _tw_table(g)
    order = []
    S = (1 << n) - 1
    while S:
        for v in bits_of(S):
            prev = S & ~(1 << v)
            q = _reachability_cost(rows, prev, v).bit_count()
            if max(T[prev], q) == T[S]:
                order.append(v)
                S = prev
                break
    order.reverse()
    pos = {v: i for i, v in enumerate(order)}
    fill = list(rows)
    for v in order:
        higher = [u for u in bits_of(fill[v]) if pos[u] > pos[v]]
        for a in higher:
            for b in higher:
                if a < b:
                    fill[a] |= 1 << b
                    fill[b] |= 1 << a
    # build bags from the last-eliminated vertex down so each bag's anchor
    # (earliest-eliminated higher neighbor) already has a bag index
    bags = []
    parent = []
    index_of_vertex: dict[int, int] = {}
    for i, v in enumerate(reversed(order)):
        higher = sorted(u for u in bits_of(fill[v]) if pos[u] > pos[v])
        bags.append(tuple([v] + higher))
        index_of_vertex[v] = i
        if not higher:
            parent.append(-1)
        else:
            anchor = min(higher, key=lambda u: pos[u])
            parent.append(index_of_vertex[anchor])
    td = TreeDecomposition(g, tuple(bags), tuple(parent))
    td.validate()
    if td.width != max(T[(1 << n) - 1], 0):
        raise InternalConsistencyError(
            f"decomposition width {td.width} != treewidth {T[(1 << n) - 1]}")
    return td


# --------------------------------------------------------- hom counting

def count_hom(pattern: SmallGraph, host: HostGraph, *,
              td: TreeDecomposition | None = None) -> int:
    """Number of homomorphisms pattern -> host.  Loop-marked patterns map
    to 0 because hosts are simple; disconnected patterns factor into the
    product of their components' counts."""
    if td is not None:
        if td.graph != pattern:
            raise ValueError("tree decomposition belongs to a different pattern")
        try:
            td.validate()
        except InternalConsistencyError as exc:
            raise ValueError(f"invalid tree decomposition: {exc}") from exc
    if pattern.loops:
        return 0
    if pattern.n == 0:
        return 1
    comps = pattern.components()
    if len(comps) > 1:
        total = 1
        for comp in comps:
            total *= count_hom(pattern.induced(comp), host)
            if total == 0:
                return 0
        return total
    if td is None:
        td = tree_decomposition(pattern)
    return _count_hom_connected(pattern, host, td)


def _join_order(bag: tuple[int, ...], scopes: list[set[int]],
                prows: list[int], parent_order: tuple[int, ...]
                ) -> tuple[int, ...]:
    """Order in which a bag's vertices are assigned: the vertex the
    parent's table keys deepest last, so that the last position writes
    each of its candidates straight into the deepest level of the trie the
    parent reads; before it, greedily the vertex with the most pattern
    edges to those already placed, then the most child scopes already
    holding a placed vertex, then the most child scopes, then the earliest
    in the bag."""
    deepest = [u for u in parent_order if u in bag][-1:]
    order: list[int] = []
    rest = [u for u in bag if u not in deepest]
    while rest:
        placed = set(order)
        placed_mask = sum(1 << w for w in order)
        best = max(rest, key=lambda u: (
            (prows[u] & placed_mask).bit_count(),
            sum(1 for s in scopes if u in s and placed & s),
            sum(1 for s in scopes if u in s)))
        order.append(best)
        rest.remove(best)
    return tuple(order + deepest)


def _count_hom_connected(pattern: SmallGraph, host: HostGraph,
                         td: TreeDecomposition) -> int:
    n_host = host.n
    if n_host == 0:
        return 0
    adj = host.adj_bits
    nbrs = host.neighbors
    prows = pattern.adj_rows()
    bags = td.bags
    parents = td.parent
    # a valid decomposition of a connected pattern may still carry extra
    # roots, whose trees hold only empty bags and each count 1
    children: list[list[int]] = [[] for _ in bags]
    roots: list[int] = []
    for b, p in enumerate(parents):
        if p == -1:
            roots.append(b)
        else:
            children[p].append(b)
    top_down = list(roots)
    for b in top_down:
        top_down.extend(children[b])
    # top-down, so that every bag knows the order its parent keys it in
    orders: list[tuple[int, ...]] = [()] * len(bags)
    for b in top_down:
        bag = bags[b]
        p = parents[b]
        orders[b] = _join_order(bag, [set(bags[c]) & set(bag) for c in children[b]],
                                prows, orders[p] if p != -1 else ())

    # tables[c], once child c is done: the number of homomorphisms of the
    # pattern below c's interface with its parent, per assignment of that
    # interface, as a trie keyed in the parent's order (an int when the
    # interface is empty); it is dropped as soon as the parent has used it
    tables: list = [None] * len(bags)
    for b in reversed(top_down):
        order = orders[b]
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
        for c in children[b]:
            scope = sorted(pos[u] for u in bags[c] if u in pos)
            if scope:
                for depth, i in enumerate(scope):
                    reads[i].append((len(nodes), depth, i == scope[-1]))
                nodes.append([tables[c]] + [None] * (len(scope) - 1))
            else:
                base *= tables[c]
            tables[c] = None
        if not m:
            tables[b] = base
            continue

        # levels[t]: the position whose vertex keys level t of this bag's
        # own trie.  _join_order assigns the deepest one last, so the last
        # position writes there directly, walking the levels above once per
        # prefix; with no levels, only the number of its candidates is needed
        last = m - 1
        levels = [pos[u] for u in orders[parents[b]] if u in pos] \
            if parents[b] != -1 else []
        upper = levels[:-1]
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
        tables[b] = trie if levels else total
    return prod(tables[r] for r in roots)
