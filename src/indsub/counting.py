"""Induced-subgraph counting: direct enumeration and basis evaluation.

count_brute enumerates the C(n,k) vertex subsets depth-first, in the order
of combinations(range(n), k), and builds each subset's induced edge
bitset incrementally: a per-depth table turns the mask of earlier
positions adjacent to a vertex into that vertex's pair_index(k, ., .) edge
bits.  The subsets under one (k-1)-prefix are grouped by induced labelled
graph, and the predicate's value is remembered per labelled edge bitset
for the rest of the call, up to MEMO_CAP graphs, so memory stays bounded
at large k.  Evaluation order is the order in which each labelled graph
first occurs, so a failing predicate is reported on the same graph as by
a plain subset sweep.  count_brute is the independent check on the basis
route, so it uses neither the catalog, canonical forms, the hom basis nor
the hom DP.

count_basis evaluates the homomorphism-basis vector against exact
per-pattern homomorphism counts.  The two must agree on every input.  It
plans every pattern of the vector into one homcount.HomStore before
counting any, so the patterns share their rooted sub-pattern tables and
repeated components within the call.  A connected pattern is planned
with the decomposition of its class's elimination order, which the
treewidth DP computes once per cache directory: the orders are kept
beside the catalog as k{k}.orders (a catalog.ClassMap), one row per class
holding the representative's vertices in elimination order.
count_basis hands k = 0 and k > n to count_brute (at most one predicate
call) and otherwise insists on an integral, nonnegative total before
returning.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from .catalog import MAX_HOM_VECTOR_K, ClassMap, build_catalog
from .errors import BudgetExceededError, InternalConsistencyError
from .graphs import MAX_SMALL_VERTICES, HostGraph, SmallGraph, pair_index
from .hombasis import hom_vector
from .homcount import (
    HomStore,
    count_hom,
    decomposition_from_order,
    elimination_order,
)
from .properties import PropertySpec, evaluate

DEFAULT_SUBSET_BUDGET = 10 ** 8
# count_brute remembers Phi for at most this many labelled graphs per call
MEMO_CAP = 1 << 16


def count_brute(phi: PropertySpec, k: int, host: HostGraph, *,
                budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """#IndSub(phi, k, host) by enumerating every k-subset of the host."""
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
    nbrs = host.neighbors
    memo: dict[int, bool] = {}
    # Subsets v_0 < ... < v_{k-1} are grown depth-first in the order of
    # combinations(range(n), k).  row[u] has bit j set while u is adjacent
    # to v_j; edge_sets[i] is the induced edge bitset of v_0..v_{i-1}.
    row = [0] * n
    chosen = [0] * k
    edge_sets = [0] * k
    last = k - 1
    total = 0
    i, v = 0, 0
    while i >= 0:
        if i == last:
            # the leaves under this prefix, grouped by induced graph in the
            # order each graph first occurs
            base, table = edge_sets[last], joins[last]
            for mask, copies in Counter(row[v:]).items():
                edges = base | table[mask]
                holds = memo.get(edges)
                if holds is None:
                    holds = evaluate(phi, SmallGraph(k, edges))
                    if len(memo) < MEMO_CAP:
                        memo[edges] = holds
                if holds:
                    total += copies
        elif v <= n - k + i:
            chosen[i] = v
            edge_sets[i + 1] = edge_sets[i] | joins[i][row[v]]
            bit = 1 << i
            for u in nbrs[v]:
                row[u] |= bit
            i += 1
            v += 1
            continue
        # position i is exhausted: move the vertex at position i - 1 on
        i -= 1
        if i >= 0:
            v = chosen[i]
            keep = ~(1 << i)
            for u in nbrs[v]:
                row[u] &= keep
            v += 1
    return total


def _join_bits(k: int) -> list[list[int]]:
    """joins[i][mask]: the edge bits, in pair_index(k, ., .) order, that
    join position i to the earlier positions set in mask."""
    joins = []
    for i in range(k):
        table = [0]
        for j in range(i):
            bit = 1 << pair_index(k, j, i)
            table += [edges | bit for edges in table]
        joins.append(table)
    return joins


def count_basis(phi: PropertySpec, k: int, host: HostGraph, *,
                hom_cache: dict | None = None) -> int:
    """#IndSub(phi, k, host) as sum_H a(H) * #Hom(H, host).

    Every pattern is planned into one HomStore before any is counted, so
    a rooted sub-pattern table, or a whole component's count, is computed
    once per call and shared by every pattern that holds it; each is
    dropped after its last planned read, and none outlives the call.  A
    connected pattern is planned with the decomposition of its class's
    stored elimination order.

    hom_cache, when given, must be dedicated to this host; it maps each
    pattern, the canonical representative its hom_vector entry carries, to
    its homomorphism count and lets repeated calls against one host share
    the expensive part.
    """
    if k <= 0 or k > host.n:
        return count_brute(phi, k, host)
    entries = hom_vector(phi, k).entries
    cache = {} if hom_cache is None else hom_cache
    store = HomStore(host)
    for g, _ in entries:
        if g not in cache:
            store.plan(g, _class_decomposition(g) if g.is_connected()
                       else None)
    total = Fraction(0)
    for g, coef in entries:
        homs = cache.get(g)
        if homs is None:
            homs = cache[g] = count_hom(g, host, store=store)
        total += coef * homs
    if total.denominator != 1 or total < 0:
        raise InternalConsistencyError(
            f"basis evaluation produced {total}, not a count")
    return int(total)


def _class_decomposition(g: SmallGraph):
    """The decomposition of the stored elimination order of g, a catalog
    representative.  The order fits the representative's own labelling
    only, so g's class is found by its exact edge bitset."""
    i = build_catalog(g.n)._index[(g.n, g.edges, 0)]
    return decomposition_from_order(g, elimination_orders(g.n)[i])


def compute_elimination_orders(cat) -> tuple[tuple[int, ...], ...]:
    """The elimination order of every representative of cat, by the
    treewidth DP."""
    return tuple(map(elimination_order, cat.graphs()))


def _order_rows_ok(cats):
    # A row is a permutation of the k vertices.
    whole = list(range(cats[-1].k))
    return lambda i, row: sorted(row) == whole


# Per k-vertex class, homcount.elimination_order of its representative.
elimination_orders = ClassMap(
    "orders", "elimination orders", "# indsub elimination-orders v1",
    ks=range(1, MAX_HOM_VECTOR_K + 1),
    lowest=lambda k: k,
    compute=lambda cats: compute_elimination_orders(cats[-1]),
    check=_order_rows_ok)
