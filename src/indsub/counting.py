"""Induced-subgraph counting: direct enumeration and basis evaluation.

count_brute enumerates the C(n,k) vertex subsets depth-first, in the order
of combinations(range(n), k), and builds each subset's induced edge
bitset incrementally: a per-depth table turns the mask of earlier
positions adjacent to a vertex into that vertex's pair_index(k, ., .) edge
bits.  The sweep reads a vertex's mask only once every chosen vertex lies
before it, so a chosen vertex marks only its later neighbours.  The
subsets under one (k-1)-prefix differ only in the last vertex, whose
induced graph is fixed by the mask of prefix positions it is adjacent
to.  So each prefix's induced labelled graph has a table of
predicate values, 0 or 1, keyed by that mask, and the prefix adds its
leaves' values in one C-level sum.  A value is filled in the first time
its graph occurs, so the predicate runs once per distinct labelled graph,
in the order each first occurs, and a failing predicate is reported on
the same graph as by a plain subset sweep.  Values are kept for the rest
of the call until MEMO_CAP are kept (the last prefix to add some may pass
it by its leaves), so memory stays bounded at large k; after that, a
prefix's new values live for that prefix only.  count_brute is the
independent check on the basis route, so it uses neither the catalog,
canonical forms, the hom basis nor the hom DP.

count_basis evaluates the homomorphism-basis vector against exact
per-pattern homomorphism counts.  The two must agree on every input.  Only
the coefficients depend on Phi: #Hom(H, host) depends on the pattern and
the host alone, so count_basis keeps the counts of the last host it
counted (one dict, keyed by pattern, held by an lru_cache of size 1 keyed
by the HostGraph, so an equal host built apart finds it) and counts only
the vector's patterns not in it yet.  It plans those patterns into one
homcount.HomStore before counting any, so they share their rooted
sub-pattern tables and repeated components within the call.  Every
pattern, connected or not, is planned with the decomposition of its
class's elimination order, one tree per component, which the treewidth DP
computes once per cache directory: the orders are kept beside the catalog
as k{k}.orders (a catalog.ClassMap), one row per class holding the
representative's vertices in elimination order.  So counting runs no
treewidth DP.  The vector's patterns are classes on at most
MAX_HOM_VECTOR_K vertices, so the kept counts are at most 1,252 exact
ints beside one host.  Only calls in one process on equal hosts gain from
them: selftest, which counts several properties into one host, and
library code that does the same.  A single `indsub count` run makes one
count_basis call and gains nothing.  Neither a pattern's decomposition
nor its plan depends on the host, so each class's decomposition is built
once per process (a bounded lru_cache keyed, like hom_vector, without the
directory) and homcount keeps its plan the same way: a pattern new to
the kept counts is planned again only if no earlier call, on any host,
has planned it.  count_basis hands k = 0 and k > n to count_brute (at
most one predicate call) and otherwise insists on an integral,
nonnegative total before returning.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb

from .catalog import MAX_HOM_VECTOR_K, ClassMap, build_catalog
from .errors import BudgetExceededError, InternalConsistencyError
from .graphs import (
    MAX_SMALL_VERTICES,
    HostGraph,
    SmallGraph,
    pair_index,
    subset_sums,
)
from .hombasis import hom_vector
from .homcount import (
    PLAN_CACHE_SIZE,
    HomStore,
    count_hom,
    decomposition_from_order,
    elimination_order,
)
from .properties import PropertySpec, evaluate

DEFAULT_SUBSET_BUDGET = 10 ** 8
# count_brute keeps Phi's value for about this many labelled graphs per call
MEMO_CAP = 1 << 16


def count_brute(phi: PropertySpec, k: int, host: HostGraph, *,
                budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """#IndSub(phi, k, host) by enumerating every k-subset of the host; the
    oracle of count_basis, it reads no catalog, canonical form, basis or DP."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    n = host.n
    if k > n:
        return 0
    work = comb(n, k)
    if work > budget:
        raise BudgetExceededError(
            f"C({n},{k}) = {work} subsets exceeds budget {budget}")
    if k > MAX_SMALL_VERTICES:
        raise ValueError(f"vertex count {k} outside 0..{MAX_SMALL_VERTICES}")
    if k == 0:
        return 1 if evaluate(phi, SmallGraph(0)) else 0
    joins = _join_bits(k)
    # each vertex's neighbours past it, the only ones whose row it marks
    later = [nb[bisect_right(nb, v):] for v, nb in enumerate(host.neighbors)]
    last = k - 1
    # kept[prefix edges][mask]: Phi's value, 1 or 0, on the graph of that
    # prefix and a last vertex adjacent to the prefix positions set in mask
    kept: dict[int, dict[int, int]] = {}
    room = MEMO_CAP
    # Subsets v_0 < ... < v_{k-1} are grown depth-first in the order of
    # combinations(range(n), k).  row[u] has bit j set, for u > v_j, while
    # u is adjacent to v_j: the sweep reads row[v] when v takes a position
    # and row[v:] as the leaves, always past every chosen vertex, so no
    # row before v_j needs v_j's bit.  edge_sets[i] is the induced edge
    # bitset of v_0..v_{i-1}.
    row = [0] * n
    chosen = [0] * k
    edge_sets = [0] * k
    total = 0
    i, v = 0, 0
    while i >= 0:
        if i == last:
            base = edge_sets[last]
            w = kept.get(base, {})
            leaves = row[v:]
            try:
                total += sum(map(w.__getitem__, leaves))
            except KeyError:
                # some leaf's graph is new: evaluate the new ones in the
                # order each first occurs, into the kept table while there
                # is room, else into a copy that lives for this prefix
                if room <= 0:
                    w = dict(w)
                elif base not in kept:
                    kept[base] = w
                table = joins[last]
                for mask in dict.fromkeys(leaves):
                    if mask not in w:
                        w[mask] = 1 if evaluate(
                            phi, SmallGraph(k, base | table[mask])) else 0
                        room -= 1
                total += sum(map(w.__getitem__, leaves))
        elif v <= n - k + i:
            chosen[i] = v
            edge_sets[i + 1] = edge_sets[i] | joins[i][row[v]]
            bit = 1 << i
            for u in later[v]:
                row[u] |= bit
            i += 1
            v += 1
            continue
        # position i is exhausted: move the vertex at position i - 1 on
        i -= 1
        if i >= 0:
            v = chosen[i]
            keep = ~(1 << i)
            for u in later[v]:
                row[u] &= keep
            v += 1
    return total


def _join_bits(k: int) -> list[list[int]]:
    """joins[i][mask]: the edge bits, in pair_index(k, ., .) order, that
    join position i to the earlier positions set in mask; joins[i] is the
    subset table of the pair bits of (0, i), ..., (i - 1, i)."""
    return [subset_sums([1 << pair_index(k, j, i) for j in range(i)])
            for i in range(k)]


def count_basis(phi: PropertySpec, k: int, host: HostGraph) -> int:
    """#IndSub(phi, k, host) as sum_H a(H) * #Hom(H, host).

    #Hom(H, host) is taken from the counts kept for the last host when
    that host equals this one.  The patterns not kept yet are planned
    into one HomStore, with the decomposition of their class's stored
    elimination order, before any is counted, so a rooted sub-pattern
    table, or a whole component's count, is computed once per call and
    shared by every pattern that holds it; each table is dropped after
    its last planned read, and none outlives the call.  The counts it
    makes are kept for later calls on this host, and each class's plan
    for later calls on any host.
    """
    if k <= 0 or k > host.n:
        return count_brute(phi, k, host)
    entries = hom_vector(phi, k).entries
    homs = _host_homs(host)
    new = [g for g, _ in entries if g not in homs]
    if new:
        store = HomStore(host)
        for g in new:
            store.plan(g, _class_decomposition(g))
        for g in new:
            homs[g] = count_hom(g, host, store=store)
    total = Fraction(0)
    for g, coef in entries:
        total += coef * homs[g]
    if total.denominator != 1 or total < 0:
        raise InternalConsistencyError(
            f"basis evaluation produced {total}, not a count")
    return int(total)


@lru_cache(maxsize=1)
def _host_homs(host: HostGraph) -> dict[SmallGraph, int]:
    """#Hom(pattern, host) per pattern count_basis has counted into host;
    filled by count_basis, kept for the last host only.  Entries are only
    added, each exact, so a caller holding the dict never reads a wrong
    count."""
    return {}


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _class_decomposition(g: SmallGraph):
    """The decomposition of the stored elimination order of g, a catalog
    representative.  The order fits the representative's own labelling
    only, so g's class is found by its exact edge bitset.  Kept per
    process, like homcount's plans, whose key it is part of."""
    i = build_catalog(g.n)._index[(g.n, g.edges)]
    return decomposition_from_order(g, elimination_orders(g.n)[i])


def compute_elimination_orders(cat) -> tuple[tuple[int, ...], ...]:
    """The elimination order of every representative of cat, by the
    treewidth DP."""
    return tuple(map(elimination_order, cat.graphs()))


def _order_map_check(cats):
    # Each row is a permutation of the k vertices.
    whole = list(range(cats[-1].k))

    def check(rows):
        if not all(map(whole.__eq__, map(sorted, rows))):
            return "an order row is a permutation of range(k)"
        return None
    return check


# Per k-vertex class, homcount.elimination_order of its representative.
elimination_orders = ClassMap(
    "orders", "elimination orders", "# indsub elimination-orders v2",
    ks=range(1, MAX_HOM_VECTOR_K + 1),
    lowest=lambda k: k,
    compute=lambda cats: compute_elimination_orders(cats[-1]),
    check=_order_map_check)
