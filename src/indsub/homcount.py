"""Exact homomorphism counting into simple host graphs.

count_hom runs dynamic programming over a tree decomposition of each
connected component of the pattern, one bottom-up pass over the bags.  A
bag's table counts the homomorphisms of the pattern below it per
assignment of its interface with the parent bag, stored as a trie keyed in
the parent's vertex order.  A bag's own assignments are enumerated as a
join: each vertex's candidates are the host neighbourhoods of its
pattern-neighbours already assigned in the bag, intersected with the keys
of every child trie at that child's current prefix.  A vertex with one
assigned pattern-neighbour and no child trie takes that neighbour's host
adjacency list as it is.  In the decompositions tree_decomposition builds,
every other vertex of a bag is joined to the bag's eliminated vertex,
which is assigned first, by a pattern edge or by a fill edge that lies in
some child's scope, so only that first vertex may range over all host
vertices.

Join orders are fixed top-down, so each bag knows the order its parent
keys it in, and each bag's last-assigned vertex writes the bag's table
straight into the trie the parent will read.  A bag that shares a vertex
with its parent always assigns the one its parent keys deepest last, so
that write has two forms only: the root, or a bag sharing nothing, adds
its candidates' total to a scalar, and every other bag walks the upper
trie levels once per prefix and adds each candidate at the deepest one.
No table is built in the bag's own order and re-keyed.

Tables are shared through a HomStore, which lives for one count_basis
call (or one lone count_hom call) and serves one host.  Every non-root bag
with a non-empty interface has a key: the interface size, the number of
vertices in the bag's subtree, and the edge bitset of the pattern induced
on those vertices, relabelled interface first, in the order the parent's
trie keys it, then the rest in increasing order.  The key is exact.  A
bag checks every pattern edge among its own vertices, and by the running
intersection property every edge with an endpoint outside the interface
lies in some bag of the subtree, while no bag there holds a vertex from
outside it.  So a bag's table is the hom count of that induced
sub-pattern per interface assignment, and two bags with one key have
tries equal as mappings.  A whole connected component is keyed the same
way with an empty interface, so a component that recurs across patterns
is counted once.

The store plans before it counts.  HomStore.plan fixes each distinct
component's decomposition, join orders and keys, and walks its bags in the
DP's order to learn which bags will find their key already computed: such
a bag takes the stored table and skips its whole subtree.  Each key's
number of such reads is its use count.  While counting, a table is stored
only if a read remains and dropped at its last read, so the store is
empty once every planned pattern is counted.

The cost is bounded by n^(tw+1) but follows the child-table sizes, which
are far smaller on sparse hosts.  Treewidth is computed exactly by the
elimination-ordering DP over vertex subsets, which is fine for the pattern
sizes this package handles (k <= 8, decomposition solver capped at 12
vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

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
              td: TreeDecomposition | None = None,
              store: HomStore | None = None) -> int:
    """Number of homomorphisms pattern -> host.  Loop-marked patterns map
    to 0 because hosts are simple; disconnected patterns factor into the
    product of their components' counts.

    With store, the pattern is counted with the tables that store shares,
    which it shares fully when it was planned into the store beforehand
    (HomStore.plan).  Without one, it is counted through a store of its
    own, planned with td when one is given.
    """
    if store is None:
        store = HomStore(host)
        store.plan(pattern, td)
    elif td is not None:
        raise ValueError("a decomposition is planned into a store, "
                         "not passed beside one")
    elif store.host != host:
        raise ValueError("the store counts into a different host")
    return store.count(pattern)


class HomStore:
    """Rooted sub-pattern tables shared by the hom counts of several
    patterns into one host.

    plan() every pattern in the order count() will be asked for it, then
    count() each.  A table is kept only while a planned read of its key
    remains, so the store is empty once every planned count has been
    made.  A count the plan did not foresee is still exact; it only
    shares less.
    """

    def __init__(self, host: HostGraph):
        self.host = host
        self._plans: dict[SmallGraph, _Plan] = {}
        # keys some planned bag computes, as far as planning has got
        self._seen: set[tuple[int, int, int]] = set()
        # key -> planned reads not yet made; key -> table while one remains
        self._reads: dict[tuple[int, int, int], int] = {}
        self._tables: dict = {}

    def plan(self, pattern: SmallGraph,
             td: TreeDecomposition | None = None) -> None:
        """Plan one later count(pattern).  td, a decomposition of the
        pattern, is validated and, for a connected pattern, replaces
        tree_decomposition(pattern)."""
        if td is not None:
            if td.graph != pattern:
                raise ValueError("tree decomposition belongs to a different pattern")
            try:
                td.validate()
            except InternalConsistencyError as exc:
                raise ValueError(f"invalid tree decomposition: {exc}") from exc
        if pattern.loops or not self.host.n:
            return
        seen, reads = self._seen, self._reads
        for g in _components(pattern):
            root = (0, g.n, g.edges)
            if root in seen:
                reads[root] = reads.get(root, 0) + 1
                continue
            plan = self._plan_of(g, td if g is pattern else None)
            for b, read in _walk(plan, seen):
                key = plan.keys[b]
                if read:
                    reads[key] = reads.get(key, 0) + 1
                elif key is not None:
                    seen.add(key)
            seen.add(root)

    def count(self, pattern: SmallGraph) -> int:
        if pattern.loops:
            return 0
        if not self.host.n:
            return 0 if pattern.n else 1
        total = 1
        for g in _components(pattern):
            root = (0, g.n, g.edges)
            if root in self._tables:
                total *= self._take(root)
                continue
            homs = self._run(self._plan_of(g))
            self._put(root, homs)
            total *= homs
        return total

    def _plan_of(self, g: SmallGraph,
                 td: TreeDecomposition | None = None) -> _Plan:
        plan = self._plans.get(g)
        if plan is None:
            plan = self._plans[g] = _plan(
                g, td if td is not None else tree_decomposition(g))
        return plan

    def _put(self, key, table) -> None:
        if self._reads.get(key) and key not in self._tables:
            self._tables[key] = table

    def _take(self, key):
        table = self._tables[key]
        left = self._reads[key] - 1
        if left:
            self._reads[key] = left
        else:
            del self._reads[key], self._tables[key]
        return table

    def _run(self, plan: _Plan) -> int:
        """The component's count: its bags in _walk order, each either
        taken from the store, subtree skipped, or joined from its
        children's tables, which it then drops."""
        tables: list = [None] * len(plan.bags)
        for b, read in _walk(plan, self._tables):
            key = plan.keys[b]
            if read:
                tables[b] = self._take(key)
                continue
            kids = plan.children[b]
            table = _bag_table(self.host, plan.rows, plan.orders[b],
                               plan.levels[b],
                               [(plan.bags[c], tables[c]) for c in kids])
            for c in kids:
                tables[c] = None
            tables[b] = table
            if key is not None:
                self._put(key, table)
        return prod(tables[r] for r in plan.roots)


def _components(pattern: SmallGraph) -> list[SmallGraph]:
    comps = pattern.components()
    if len(comps) == 1:
        return [pattern]
    return [pattern.induced(comp) for comp in comps]


class _Plan(NamedTuple):
    """A connected pattern's decomposition, fixed for the DP: each bag's
    join order, its interface with its parent in the order the parent's
    trie keys it (levels), and its sub-pattern key, None for a root or an
    empty interface."""

    rows: list[int]
    bags: tuple[tuple[int, ...], ...]
    children: list[list[int]]
    roots: list[int]
    orders: list[tuple[int, ...]]
    levels: list[tuple[int, ...]]
    keys: list[tuple[int, int, int] | None]


def _plan(pattern: SmallGraph, td: TreeDecomposition) -> _Plan:
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
    levels: list[tuple[int, ...]] = [()] * len(bags)
    for b in top_down:
        bag = bags[b]
        p = parents[b]
        if p != -1:
            levels[b] = tuple(u for u in orders[p] if u in bag)
        orders[b] = _join_order(bag, [set(bags[c]) & set(bag) for c in children[b]],
                                prows, orders[p] if p != -1 else ())
    below = [0] * len(bags)
    keys: list[tuple[int, int, int] | None] = [None] * len(bags)
    for b in reversed(top_down):
        mask = sum(1 << u for u in bags[b])
        for c in children[b]:
            mask |= below[c]
        below[b] = mask
        if levels[b]:
            keys[b] = _sub_pattern_key(prows, levels[b], mask)
    return _Plan(prows, bags, children, roots, orders, levels, keys)


def _sub_pattern_key(prows: list[int], interface: tuple[int, ...],
                     below: int) -> tuple[int, int, int]:
    """(interface size, vertex count, edge bitset) of the pattern induced
    on the vertices in below, relabelled interface first, in the given
    order, then the rest in increasing order; pair (j, i), j < i, is bit
    i(i-1)/2 + j."""
    labels = list(interface)
    labels += bits_of(below & ~sum(1 << u for u in interface))
    edges = 0
    shift = 0
    for i, v in enumerate(labels):
        row = prows[v]
        for j in range(i):
            if row >> labels[j] & 1:
                edges |= 1 << (shift + j)
        shift += i
    return len(interface), len(labels), edges


def _walk(plan: _Plan, present):
    """The bags of plan in DP order, as (bag, read) pairs.  A bag whose key
    is in present comes with read True and its subtree is skipped; any
    other bag comes after all of its children's subtrees.  present is
    looked at as the walk goes, so a table the walk itself stores is found
    by a later bag."""
    stack = [(r, False) for r in reversed(plan.roots)]
    while stack:
        b, done = stack.pop()
        if done:
            yield b, False
            continue
        key = plan.keys[b]
        if key is not None and key in present:
            yield b, True
            continue
        stack.append((b, True))
        stack.extend((c, False) for c in reversed(plan.children[b]))


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


def _bag_table(host: HostGraph, prows: list[int], order: tuple[int, ...],
               levels: tuple[int, ...], kids: list[tuple[tuple[int, ...], object]]):
    """One bag's table: the number of homomorphisms of the pattern below
    the bag per assignment of levels, its interface with its parent, as a
    trie keyed in that order (an int when levels is empty).  kids holds
    each child's bag and table."""
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
