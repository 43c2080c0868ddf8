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
the vector's patterns not in it yet.  It counts those patterns in one
homcount.count_homs call, so they share their rooted sub-pattern tables
and repeated components within the call.  Each class is planned once
per cache directory: class_plans takes its plan, bag joins compiled,
from homcount's plan file for its vertex count m,
k{m}.plans.<interpreter cache tag>.  Each file is read once per process
and directory, and only the files of the vertex counts the vector holds
are read.  A class that its file lacks is planned and added to it, and
each file that gained a plan is saved once, before counting.  Such a
class, connected or not, is planned on homcount.tree_decomposition, one
tree per component, so the treewidth DP runs once per class and cache
directory, and a count whose plan files hold its classes runs no DP and
plans nothing.  The vector's patterns are classes on at most
MAX_HOM_VECTOR_K vertices, so the kept counts are at most 1,252 exact
ints beside one host.  Only calls in one process on equal hosts gain from
them: selftest, which counts several properties into one host, and
library code that does the same.  A single `indsub count` run makes one
count_basis call and gains nothing.  A pattern's plan does not depend on
the host, so homcount keeps each plan per process (a bounded lru_cache
keyed, like hom_vector, without the directory): a class that no plan
file holds is planned again only if no earlier call, on any host, has
planned it.  count_basis hands k = 0 and k > n to count_brute (at
most one predicate call) and otherwise insists on an integral,
nonnegative total before returning.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb

from .catalog import default_cache_dir
from .errors import BudgetExceededError, InternalConsistencyError
from .graphs import (
    MAX_SMALL_VERTICES,
    HostGraph,
    SmallGraph,
    pair_index,
    subset_sums,
)
from .hombasis import hom_vector
from .homcount import count_homs, load_plans, plan_of, save_plans
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
    that host equals this one.  The patterns not kept yet are counted in
    one count_homs call, so a rooted sub-pattern table, or a whole
    component's count, is computed once per call and shared by every
    pattern that holds it; each table is dropped after its last planned
    read, and none outlives the call.  The counts it makes are kept for
    later calls on this host, and each class's plan for later calls on
    any host.  The plans come from the cache directory's plan files
    (class_plans), which are saved before counting when planning added a
    class to them.
    """
    if k <= 0 or k > host.n:
        return count_brute(phi, k, host)
    entries = hom_vector(phi, k).entries
    homs = _host_homs(host)
    new = [g for g, _ in entries if g not in homs]
    if new:
        homs.update(zip(new, count_homs(host, class_plans(new))))
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


def class_plans(classes) -> list:
    """The plan of each of classes, catalog representatives on at most
    MAX_HOM_VECTOR_K vertices: the one the cache directory's plan file for
    its vertex count holds, or else plan_of's, which is added to that
    file's table.  Each table that gained a plan is saved once, after
    every class has its plan."""
    directory = default_cache_dir()
    plans, grown = [], set()
    for g in classes:
        table = load_plans(directory, g.n)
        plan = table.get(g.edges)
        if plan is None:
            plan = table[g.edges] = plan_of(g)
            grown.add(g.n)
        plans.append(plan)
    for m in grown:
        save_plans(directory, m)
    return plans
