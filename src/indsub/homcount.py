"""Exact homomorphism counting into simple host graphs.

count_hom runs dynamic programming over a tree decomposition of the
pattern, one bottom-up pass over the bags.  The decompositions built here
are forests with one tree per connected component, so the count is the
product of the roots' counts.
Of the bags an elimination order gives, one per vertex with its higher
fill-neighbours, decomposition_from_order keeps only the maximal cliques
of the filled graph: a bag that one of its children's bags contains is
left out, and that child takes its place and adopts its other children.
That keeps the decomposition valid and its width, and spares a pass that
would only re-read the child's table to sum one vertex out, so a bag may
sum out several vertices.  A bag's table counts
the homomorphisms of the pattern below it per assignment of its interface
with the parent bag, stored as a trie keyed in the parent's vertex order.
A bag's own assignments are enumerated as a join: each vertex's
candidates are the host neighbourhoods of its pattern-neighbours already
assigned in the bag, intersected with the keys of every child trie at
that child's current prefix.  In the decompositions tree_decomposition
builds, every other vertex of a bag is joined to the bag's eliminated
vertex by a pattern edge or by a fill edge that lies in some child's
scope.  Leaving bags out keeps that: the bags kept are such bags, a child
that takes a bag's place keeps its own children, and its eliminated vertex
is not in its new parent's bag either.  The join order assigns that vertex
before the last position, and places a vertex so joined to one already
placed while there is one, so only the first vertex assigned may range
over all host vertices.  _plan takes any valid decomposition as it is:
the DP is exact on it, though its joins may then range wider.

Join orders are fixed top-down, so each bag knows the order its parent
keys it in.  A bag assigns the vertex its parent keys deepest last, and
that last vertex writes the bag's table straight into the trie the parent
will read: the root, or a bag sharing nothing, adds its candidates' total
to a scalar, and every other bag adds each candidate at the deepest level,
reached once per prefix.  No table is re-keyed.

Once the plan fixes a bag's join order and levels, its join is a fixed
loop nest, so it is compiled, not interpreted.  A bag's shape (per
position, its earlier pattern-neighbours and the child tries it descends,
then its upper trie levels) is turned into the source of one Python
function with one loop per position.  A position with one
pattern-neighbour runs over that neighbour's host neighbours; one with
several walks the set bits of their adjacency masks' AND, computed as
soon as the last of them is assigned, so it visits only their common
neighbours and a last position without child tries just counts them.  A
position with none runs over a child trie's items, or over all host
vertices; the other tries are .get lookups.  The source holds only
keywords and names built from small integers; no pattern, host or other
input text enters it.

Each shape's function is compiled once per process (a bounded cache), and
a plan read from a plan file compiles nothing.  The plans of the catalog
classes that count_basis counts are kept per cache directory, one plan
file per pattern vertex count m, k{m}.plans.<interpreter cache tag>
(k{m}.{PLAN_SUFFIX}): a dict from each class's canonical edge bitset to
its whole plan as plain tuples, each bag's join as its function's code
object.  load_plans reads a file once per process and directory, into a
bounded cache, and save_plans rewrites it from that table, to which
counting.class_plans adds each class it plans; this module reads no path
of its own, so a lone count_hom never touches the disk.  A file holds at
most its own catalog's classes, so it needs no bound.

A plan file is a cache file of catalog's one envelope, under its one
trust rule: written with mode 0o600, read only if it is the user's own
and no one else may write it, and a file of other inputs is stale.  Its
inputs are the interpreter's bytecode MAGIC_NUMBER and the source of
this module and of graphs (whose pair_bits makes the keys), so a file
written by other planning code or another interpreter version is never
read, no version is bumped by hand, and stale plans never mix with fresh
ones.  On reading, the body must be a dict from ints to plans, each a
tuple of seven tuples whose joins hold code objects.  It is written in
marshal's own version, unlike catalogs and maps.  A stale file counts as
missing, any other bad one is logged as a rebuild, the next save
replaces both, a failed save is logged, and the cache ignores
sys.dont_write_bytecode.  A plan file of the envelope before catalog's
fails the magic number, so it is logged and rebuilt once.

count_homs counts a list of plans into one host and shares tables
among them for the length of the call.  Every bag has a
key: the interface size, the number of vertices in the bag's subtree, and
the edge bitset of the pattern induced on those vertices, relabelled
interface first, in the order the parent's trie keys it, then the rest in
increasing order.  The key is exact.  A bag checks every pattern edge
among its own vertices, and by the running intersection property every
edge with an endpoint outside the interface lies in some bag of the
subtree, while no bag there holds a vertex from outside it.  So a bag's
table is the hom count of that induced sub-pattern per interface
assignment, and two bags with one key have tries equal as mappings.  A
root, or a bag sharing nothing with its parent, has an empty interface:
its subtree holds whole components, and its key is (0, their vertex
count, their edges relabelled in increasing order).  So a component that
recurs across patterns, or within one, is counted once.  graphs.pair_bits
builds every key's edge bitset.

Before it counts, count_homs walks every plan's bags in the DP's order
to learn which bags will find their key already computed: such a bag
takes the kept table and skips its whole subtree.  Each key's number of
such reads is its use count.  While counting, a table is kept only if a
read remains and dropped at its last read, so nothing is kept once every
plan is counted, and no table outlives the call; count_basis keeps the
counts it makes, for the last host it counted.  A plan depends on the
pattern alone, never on the host, so plan_of keeps one per pattern and
process, bounded: the plan of tree_decomposition's decomposition, which
count_hom counts on and counting.class_plans adds to a plan file that
lacks it; count_basis hands count_homs the plans its plan files hold.  A
plan is made of tuples and is only read, so the calls that share it
cannot change it.

The cost is bounded by n^(tw+1) but follows the child-table sizes, which
are far smaller on sparse hosts.  Treewidth is computed exactly by the
elimination-ordering DP over vertex subsets, which is fine for the pattern
sizes this package handles (k <= 8, decomposition solver capped at 12
vertices).  It runs on each connected component: exact_treewidth takes
the largest of the components' values from their tables, and
tree_decomposition concatenates one optimal order peeled off each
component's table, so the order is optimal on every component.
decomposition_from_order is the one bag builder: tree_decomposition is
that builder on that order, checked against the DP's width.  The DP runs
for a pattern only when plan_of plans it, so
count_basis, whose classes' plans the plan files keep, runs it once per
class and cache directory; tree_decomposition, count_hom and
exact_treewidth run it on any graph and read no catalog.
"""

from __future__ import annotations

import marshal
import sys
from functools import lru_cache
from importlib.util import MAGIC_NUMBER
from math import prod
from pathlib import Path
from types import FunctionType
from typing import NamedTuple

from .catalog import MAX_HOM_VECTOR_K, _load, _save
from .errors import FormatError, InternalConsistencyError
from .graphs import HostGraph, SmallGraph, bits_of, pair_bits

MAX_TREEWIDTH_N = 12
# a plan file's name in a cache directory is k{m}.{PLAN_SUFFIX} for the
# classes on m vertices, one per interpreter
PLAN_SUFFIX = f"plans.{sys.implementation.cache_tag}"
# plans plan_of keeps, one per pattern: count_basis may count any of the
# 1,252 classes on at most 7 vertices, so a process that counts every one
# of them plans each once
PLAN_CACHE_SIZE = 2048


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


def _tw_table(g: SmallGraph) -> tuple[list[int], list[int]]:
    """T[S] = min over orders eliminating exactly S first of the max
    back-degree incurred, and last[S] = the smallest vertex of S that such
    an optimal order can eliminate last."""
    n = g.n
    rows = g.adj_rows()
    T = [0] * (1 << n)
    last = [0] * (1 << n)
    for S in range(1, 1 << n):
        best = n
        for v in bits_of(S):
            prev = S & ~(1 << v)
            q = _reachability_cost(rows, prev, v).bit_count()
            cost = T[prev] if T[prev] > q else q
            if cost < best:
                best = cost
                choice = v
        T[S] = best
        last[S] = choice
    return T, last


def _component_tables(g: SmallGraph):
    """(vertices, treewidth table, last-vertex table) per connected
    component of g, in g.components() order."""
    if g.n > MAX_TREEWIDTH_N:
        raise ValueError(f"treewidth solver handles at most {MAX_TREEWIDTH_N} vertices")
    for comp in g.components():
        h = g if len(comp) == g.n else g.induced(comp)
        yield (comp, *_tw_table(h))


def _order_and_width(g: SmallGraph) -> tuple[tuple[int, ...], int]:
    """A width-optimal elimination order of g, the first vertex eliminated
    first, and its width (-1 without vertices).  The treewidth DP runs on
    each connected component and peels one order off each; the orders are
    concatenated, so the order is optimal on every component, not only on
    g, and its decomposition is one tree per component."""
    order: list[int] = []
    width = -1
    for comp, T, last in _component_tables(g):
        order += (comp[v] for v in _peel(last))
        width = max(width, T[-1])
    return tuple(order), width


def exact_treewidth(g: SmallGraph) -> int:
    """The treewidth of g, -1 without vertices: the largest of its
    components' treewidths, read off the DP tables, no order peeled."""
    return max((T[-1] for _, T, _ in _component_tables(g)), default=-1)


class TreeDecomposition(NamedTuple):
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


def _peel(last: list[int]) -> tuple[int, ...]:
    """The optimal order the treewidth DP recorded: walk back from the
    full set, eliminating each set's recorded last vertex last."""
    order = []
    S = len(last) - 1
    while S:
        v = last[S]
        order.append(v)
        S &= ~(1 << v)
    order.reverse()
    return tuple(order)


def tree_decomposition(g: SmallGraph) -> TreeDecomposition:
    """Width-optimal rooted decomposition, one tree per component: the
    bags of the order _order_and_width gives, checked against the width
    the treewidth DP gives."""
    if g.n == 0:
        return TreeDecomposition(g, ((),), (-1,))
    order, width = _order_and_width(g)
    td = decomposition_from_order(g, order)
    td.validate()
    if td.width != width:
        raise InternalConsistencyError(
            f"decomposition width {td.width} != treewidth {width}")
    return td


def decomposition_from_order(g: SmallGraph, order: tuple[int, ...]
                             ) -> TreeDecomposition:
    """The rooted decomposition of an elimination order of all of g's
    vertices: simulate fill-in and emit, for each vertex, the bag of it
    and its higher fill-neighbors, hung below its anchor's (the
    earliest-eliminated of those neighbors), except the bags a child's bag
    contains.  Its width is the order's, not necessarily the treewidth."""
    pos = {v: i for i, v in enumerate(order)}
    fill = g.adj_rows()
    for v in order:
        higher = [u for u in bits_of(fill[v]) if pos[u] > pos[v]]
        for a in higher:
            for b in higher:
                if a < b:
                    fill[a] |= 1 << b
                    fill[b] |= 1 << a
    # From the last-eliminated vertex down, so each anchor comes first.
    # A vertex's higher neighbors are its anchor and some of the anchor's,
    # so its bag contains its anchor's exactly when it has one more of
    # them; the first such child takes the anchor's place, and its bag
    # then hangs where the anchor's did.
    higher_of: dict[int, list[int]] = {}
    up: dict[int, int | None] = {}     # whose place a bag hangs below
    taken_by: dict[int, int] = {}
    for v in reversed(order):
        higher = higher_of[v] = sorted(u for u in bits_of(fill[v])
                                       if pos[u] > pos[v])
        anchor = min(higher, key=pos.__getitem__, default=None)
        if (anchor is not None and anchor not in taken_by
                and len(higher) == len(higher_of[anchor]) + 1):
            taken_by[anchor] = v
            anchor = up[anchor]
        up[v] = anchor
    kept = [v for v in reversed(order) if v not in taken_by]
    index = {v: i for i, v in enumerate(kept)}

    def place(u: int | None) -> int:
        if u is None:
            return -1
        while u in taken_by:
            u = taken_by[u]
        return index[u]

    return TreeDecomposition(g, tuple((v, *higher_of[v]) for v in kept),
                             tuple(place(up[v]) for v in kept))


# --------------------------------------------------------- hom counting

def count_hom(pattern: SmallGraph, host: HostGraph) -> int:
    """Number of homomorphisms pattern -> host, on plan_of(pattern).
    Disconnected patterns factor into the product of their components'
    counts.  Into a host without vertices it is 1 for the empty pattern,
    else 0, and nothing is planned."""
    if not host.n:
        return 0 if pattern.n else 1
    return count_homs(host, [plan_of(pattern)])[0]


def count_homs(host: HostGraph, plans: list[_Plan]) -> list[int]:
    """The hom count of each plan's pattern into host, in order.  Every
    plan is walked first to learn each sub-pattern key's planned reads,
    so a rooted sub-pattern table, or a whole component's count, is
    computed once in the call and shared by every plan that holds it."""
    seen: set[tuple[int, int, int]] = set()
    reads: dict[tuple[int, int, int], int] = {}
    for plan in plans:
        for b, read in _walk(plan, seen):
            key = plan.keys[b]
            if read:
                reads[key] = reads.get(key, 0) + 1
            else:
                seen.add(key)
    kept: dict = {}
    return [_run(plan, host, kept, reads) for plan in plans]


def _run(plan: _Plan, host: HostGraph, kept: dict, reads: dict) -> int:
    """The pattern's count: its bags in _walk order, each either taken
    from kept, subtree skipped, or joined from its children's tables,
    which it then drops; the product of its roots' counts.  reads holds
    each key's planned reads not yet made; a table is kept while one
    remains and dropped from kept at its last."""
    tables: list = [None] * len(plan.bags)
    for b, read in _walk(plan, kept):
        key = plan.keys[b]
        if read:
            tables[b] = kept[key]
            left = reads[key] - 1
            if left:
                reads[key] = left
            else:
                del reads[key], kept[key]
            continue
        table = _bag_table(plan, b, host, tables)
        for c in plan.children[b]:
            tables[c] = None
        tables[b] = table
        if reads.get(key) and key not in kept:
            kept[key] = table
    return prod(tables[r] for r in plan.roots)


class _Plan(NamedTuple):
    """A pattern's decomposition, fixed for the DP: each bag's join
    order, its interface with its parent in the order the parent's trie
    keys it (levels, empty for a root), its compiled join with the
    children it reads as tries and those it only multiplies in (joins),
    and its sub-pattern key.  All tuples: the calls of a process share
    one plan per pattern, and none may change it."""

    bags: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    orders: tuple[tuple[int, ...], ...]
    levels: tuple[tuple[int, ...], ...]
    joins: tuple[tuple, ...]
    keys: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def plan_of(pattern: SmallGraph) -> _Plan:
    """The plan of pattern on tree_decomposition(pattern), made once per
    process while the memo holds it."""
    return _plan(pattern, tree_decomposition(pattern))


def _plan(pattern: SmallGraph, td: TreeDecomposition) -> _Plan:
    prows = pattern.adj_rows()
    bags, parents = td.bags, td.parent
    # one tree per component, and a valid decomposition may carry extra
    # trees of empty bags, which each count 1
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
    joins: list[tuple] = [()] * len(bags)
    for b in top_down:
        bag = bags[b]
        p = parents[b]
        if p != -1:
            levels[b] = tuple(u for u in orders[p] if u in bag)
        orders[b] = _join_order(bag, [set(bags[c]) & set(bag) for c in children[b]],
                                prows, orders[p] if p != -1 else ())
        shape, slots, folded = _shape(orders[b], levels[b], prows,
                                      [(c, bags[c]) for c in children[b]])
        joins[b] = (_compiled(shape), tuple(slots), tuple(folded))
    below = [0] * len(bags)
    for b in reversed(top_down):
        mask = sum(1 << u for u in bags[b])
        for c in children[b]:
            mask |= below[c]
        below[b] = mask
    keys = tuple(_sub_pattern_key(prows, interface, mask)
                 for interface, mask in zip(levels, below))
    return _Plan(bags, tuple(map(tuple, children)), tuple(roots),
                 tuple(orders), tuple(levels), tuple(joins), keys)


def _sub_pattern_key(prows: list[int], interface: tuple[int, ...],
                     below: int) -> tuple[int, int, int]:
    """(interface size, vertex count, edge bitset) of the pattern induced
    on the vertices in below, relabelled interface first, in the given
    order, then the rest in increasing order."""
    labels = list(interface)
    labels += bits_of(below & ~sum(1 << u for u in interface))
    return len(interface), len(labels), pair_bits(
        [prows[v] for v in labels], [1 << v for v in labels])


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
        if plan.keys[b] in present:
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


def _bag_table(plan: _Plan, b: int, host: HostGraph, tables: list):
    """Bag b's table from its children's: the number of homomorphisms of
    the pattern below the bag per assignment of its interface with its
    parent, as a trie keyed in the parent's order (an int for a root or an
    empty interface)."""
    join, slots, folded = plan.joins[b]
    return join(host.n, host.adj_bits, host.neighbors,
                prod(tables[c] for c in folded), *[tables[c] for c in slots])


def _shape(order: tuple[int, ...], levels: tuple[int, ...],
           prows: list[int], kids: list[tuple[int, tuple[int, ...]]]):
    """A bag's join as (shape, slots, folded), given each child's index
    and bag.  The shape holds, per position of order, the earlier
    positions joined to it by a pattern edge and (slot, depth, last) for
    every child trie it descends, then the positions keying the upper
    levels of the bag's own trie, whether it has levels at all, and the
    number of child tries.  slots lists the children whose tries those
    are, folded those sharing no vertex with the bag, whose counts only
    multiply."""
    pos = {u: i for i, u in enumerate(order)}
    nbr_pos = tuple(tuple(j for j in range(i) if prows[u] >> order[j] & 1)
                    for i, u in enumerate(order))
    reads: list[list[tuple[int, int, bool]]] = [[] for _ in order]
    slots, folded = [], []
    for c, bag in kids:
        scope = sorted(pos[u] for u in bag if u in pos)
        for depth, i in enumerate(scope):
            reads[i].append((len(slots), depth, i == scope[-1]))
        (slots if scope else folded).append(c)
    upper = tuple(pos[u] for u in levels[:-1])
    shape = (nbr_pos, tuple(map(tuple, reads)), upper, bool(levels),
             len(slots))
    return shape, slots, folded


# compiled bag joins kept, by shape: the plans count_basis makes of every
# class on at most 7 vertices, disconnected ones included, need 594
@lru_cache(maxsize=1024)
def _compiled(shape):
    """The join function of a bag shape, compiled from its source."""
    namespace: dict = {}
    exec(compile(_source(shape), "<bag join>", "exec"), namespace)
    return namespace["join"]


@lru_cache(maxsize=MAX_HOM_VECTOR_K)
def load_plans(directory: Path, m: int) -> dict[int, _Plan]:
    """The plan table of the plan file for m vertices in directory: the
    canonical edge bitset of each class the file holds -> its plan, to
    which class_plans adds the plans it makes.  Read once per process,
    directory and m, with room for one directory's files.  A missing or
    stale file holds nothing; any other that fails is logged as a rebuild
    and holds nothing either, so the next save replaces it."""
    table = _load("plans", m, directory / f"k{m}.{PLAN_SUFFIX}",
                  _planner_inputs(), _checked_plans)
    return {} if table is None else table


def save_plans(directory: Path, m: int) -> None:
    """Write the plan table load_plans(directory, m) to its plan file, in
    marshal's own version, which writes about a quarter of version 2's
    bytes; a failed write is logged."""
    _save("plans", {
        edges: (*plan[:5], tuple((join.__code__, *rest)
                                 for join, *rest in plan.joins), plan.keys)
        for edges, plan in load_plans(directory, m).items()},
        directory / f"k{m}.{PLAN_SUFFIX}", _planner_inputs(), marshal.version)


@lru_cache(maxsize=1)
def _planner_inputs() -> bytes:
    """A plan file's inputs: the interpreter's bytecode MAGIC_NUMBER, then
    the source of the modules that shape a plan: this one, and graphs,
    whose pair_bits makes its keys."""
    return MAGIC_NUMBER + b"".join(
        Path(sys.modules[module].__file__).read_bytes()
        for module in (__name__, pair_bits.__module__))


def _checked_plans(stored) -> dict[int, _Plan]:
    """The plan table a plan file stores, or FormatError unless stored is
    a dict from ints to plans, each a tuple of seven tuples whose joins
    hold code objects."""
    bad = "not a table of plans"
    if type(stored) is not dict:
        raise FormatError(bad)
    plans = {}
    for edges, plan in stored.items():
        if type(edges) is not int or type(plan) is not tuple or \
                list(map(type, plan)) != [tuple] * len(_Plan._fields):
            raise FormatError(bad)
        try:
            joins = tuple([(FunctionType(code, {}), slots, folded)
                           for code, slots, folded in plan[5]])
        except (TypeError, ValueError) as exc:
            raise FormatError(bad) from exc
        plans[edges] = _Plan(*plan[:5], joins, plan[6])
    return plans


def _source(shape) -> str:
    """Source of join(n_host, adj, nbrs, base, N0_0, ..), which computes
    any bag of the given shape with one loop per position: v<i> is
    position i's host vertex, w<i> the weight after it, and N<s>_<d> child
    trie s's node at depth d (past its last level, a count).  A position
    with one pattern-neighbour runs over that neighbour's host neighbours;
    one with several walks the set bits of M<i>, the AND of their
    adjacency masks, computed once the last of them is assigned, so only
    common neighbours are visited.  Either looks its child tries up with
    .get.  A position without pattern-neighbours runs over its first child
    trie's items, or over every host vertex.  Timed join by join on the
    count workload (seeds 1 and 1000), this fixed choice beat driving from
    a trie below depth 0 by about 8 %, and a run-time choice of the smaller
    side by about 2 %."""
    nbr_pos, reads, upper, to_trie, n_slots = shape
    m = len(nbr_pos)
    params = ", ".join(["n_host", "adj", "nbrs", "base"]
                       + [f"N{s}_0" for s in range(n_slots)])
    if not m:
        return f"def join({params}):\n    return base\n"
    empty = "{}" if to_trie else "0"
    lines = [f"def join({params}):", "    if not base:",
             f"        return {empty}",
             f"    {'trie' if to_trie else 'total'} = {empty}"]
    hoist: list[list[int]] = [[] for _ in range(m)]
    for i, nb in enumerate(nbr_pos):
        if nb[1:]:
            hoist[nb[-1]].append(i)

    def header(i: int, pad: str) -> list[str]:
        nb, rd = nbr_pos[i], reads[i]
        if nb[1:]:
            out = [f"{pad}m{i} = M{i}", f"{pad}while m{i}:",
                   f"{pad}    b{i} = m{i} & -m{i}", f"{pad}    m{i} ^= b{i}",
                   f"{pad}    v{i} = b{i}.bit_length() - 1"]
        elif nb:
            out = [f"{pad}for v{i} in nbrs[v{nb[0]}]:"]
        elif rd:
            s, d, _ = rd[0]
            out = [f"{pad}for v{i}, N{s}_{d + 1} in N{s}_{d}.items():"]
            rd = rd[1:]
        else:
            out = [f"{pad}for v{i} in range(n_host):"]
        for s, d, _ in rd:
            out.append(f"{pad}    N{s}_{d + 1} = N{s}_{d}.get(v{i})")
            out.append(f"{pad}    if N{s}_{d + 1} is None: continue")
        return out

    def ends(i: int) -> list[str]:
        return [f"N{s}_{d + 1}" for s, d, end in reads[i] if end]

    w = "base"
    pad = "    "
    for i in range(m - 1):
        lines += header(i, pad)
        pad += "    "
        if ends(i):
            lines.append(f"{pad}w{i} = {' * '.join([w, *ends(i)])}")
            w = f"w{i}"
        lines += [f"{pad}M{t} = " + " & ".join(f"adj[v{j}]" for j in nbr_pos[t])
                  for t in hoist[i]]
    last, nb, rd = m - 1, nbr_pos[-1], reads[-1]
    if not to_trie:
        if not rd:
            many = ("n_host" if not nb else f"len(nbrs[v{nb[0]}])"
                    if len(nb) == 1 else f"M{last}.bit_count()")
            lines.append(f"{pad}total += {w} * {many}")
        elif len(rd) == 1 and not nb:
            lines.append(f"{pad}total += {w} * sum(N{rd[0][0]}_{rd[0][1]}.values())")
        else:
            lines += [f"{pad}t = 0", *header(last, pad),
                      f"{pad}    t += {' * '.join(ends(last))}",
                      f"{pad}total += {w} * t"]
        return "\n".join(lines + ["    return total"]) + "\n"
    node = "node" if upper else "trie"
    if upper:
        lines.append(f"{pad}node = None")
    lines += header(last, pad)
    if upper:
        path = "".join(f".setdefault(v{p}, {{}})" for p in upper)
        lines.append(f"{pad}    if node is None: node = trie{path}")
    lines.append(f"{pad}    {node}[v{last}] = {node}.get(v{last}, 0) + "
                 + " * ".join([w, *ends(last)]))
    return "\n".join(lines + ["    return trie"]) + "\n"
