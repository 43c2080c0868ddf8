"""Homomorphism-basis coefficients for induced-subgraph counting.

For a property phi and size k there is a unique finitely supported vector
a with  #IndSub(phi, k, G) = sum_H a(H) * #Hom(H, G)  for every simple
host G.  It is computed here in three exact steps, each over the classes
of the k-vertex catalog rather than over labeled graphs:

  1. phi is read once per class C from properties.class_values;
  2. the signed transform s(C) = sum_{L <= C} (-1)^(|C|-|L|) phi(L) over
     the spanning subgraphs L of the representative comes from a
     recursion over one-edge deletions.  With S_r(C) the number of
     spanning subgraphs satisfying phi that miss exactly r edges of C,
         S_0(C) = phi(C),   r * S_r(C) = sum_C' N1(C', C) * S_(r-1)(C'),
     where N1(C', C) counts the edges of C whose deletion gives class C'
     (read from catalog.edge_deletions, which does not depend on phi),
     and s(C) = sum_r (-1)^r S_r(C).  The sums over C' for r = 1..e(C)
     are taken together, as the column sums of the rows of the e(C)
     one-edge deletions of C.  C then
     receives the coefficient a(C) = s(C)/#Aut(C);
  3. vertex identification spreads a(C) over the quotients of C by the
     set partitions rho of its vertices into independent sets, with
     Moebius weight prod_B (-1)^(|B|-1) (|B|-1)!.  Every other partition
     gives a quotient with a loop, which admits no map into a simple host.
     The partitions are grown over plain integers: vertex i joins each
     earlier block that holds none of its neighbours, then opens a new
     block, so blocks stay in order of their least vertex.  A block keeps
     its vertex mask and the union of its members' adjacency rows, and
     joining a block of size s multiplies the weight by -s.  Blocks a < b
     are adjacent in the quotient iff the row union of a meets the mask
     of b, so the quotient's edge bitset is pair_bits(row unions, masks).
     The sum of weights per quotient class does not depend on phi
     either.  A leaf's labelled quotient (m, edges) is named by its global
     class id, the index in the m-vertex catalog after the classes of all
     smaller catalogs, through one index_of lookup per distinct leaf and k,
     never by a canonical form.  The rows, one flat tuple of alternating
     id and sum per class, are kept on disk as k{k}.quotients beside the
     catalog (see catalog.ClassMap; the header names the digest of every
     catalog k{1}..k{k}), so a process reads them instead of recomputing.

hom_vector adds the weighted sums up per global class id and emits the
catalog representatives, the canonical graphs, of the nonzero ones, by
edge count and then by the graph6 text their catalog holds.  All
arithmetic is over integers and Fraction; every denominator divides k!.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import factorial
from operator import itemgetter

from .catalog import MAX_HOM_VECTOR_K, ClassMap, build_catalog, edge_deletions
from .errors import InternalConsistencyError
from .graphs import Frozen, SmallGraph, pair_bits, pair_count
from .properties import PropertySpec, class_values


class HomVector(Frozen):
    k: int
    entries: tuple[tuple[SmallGraph, Fraction], ...]

    @cached_property
    def _index(self) -> dict:
        return {(g.n, build_catalog(g.n).index_of(g)): c
                for g, c in self.entries}

    def coefficient(self, g: SmallGraph) -> Fraction:
        if not 1 <= g.n <= self.k:
            return Fraction(0)
        return self._index.get((g.n, build_catalog(g.n).index_of(g)),
                               Fraction(0))

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def k_vertex_entries(self) -> tuple[tuple[SmallGraph, Fraction], ...]:
        return tuple((g, c) for g, c in self.entries if g.n == self.k)


def _spanning_subgraph_counts(phi: PropertySpec, k: int) -> list[list[int]]:
    """S[i][r] for r = 0..e(C_i): spanning subgraphs of the i-th catalog
    representative that satisfy phi and miss exactly r of its edges.
    Catalog order is by edge count, so every C' is done before C."""
    cat = build_catalog(k)
    counts: list[list[int]] = []
    for g6, val, children in zip(cat.graph6, class_values(phi, k),
                                 edge_deletions(k)):
        row = [int(val)]
        # column r-1 of the e(C) child rows, e(C) entries each, is r*S_r
        columns = zip(*map(counts.__getitem__, children), strict=True)
        for r, total in enumerate(map(sum, columns), 1):
            q, rem = divmod(total, r)
            if rem:
                raise InternalConsistencyError(
                    f"{total} subgraph-edge pairs of {g6} "
                    f"missing {r} edges are not divisible by {r}")
            row.append(q)
        counts.append(row)
    return counts


def compute_quotient_rows(cats) -> tuple[tuple[int, ...], ...]:
    """The quotient rows of cats[-1], where cats are the catalogs 1..k: step
    3 for each class, a leaf's labelled (m, edges) mapped to its global
    class id by one index_of lookup per distinct leaf graph.  A class
    keeps its pairs in the order the recursion first meets them and drops
    zero sums; its own class comes last with sum 1, from the discrete
    partition, the only one with k blocks."""
    first = list(accumulate((c.class_count for c in cats), initial=0))
    ids: dict[tuple[int, int], int] = {}
    rows = []
    for g in cats[-1].graphs():
        row: dict[int, int] = {}
        for key, mu in _labelled_quotients(g).items():
            gid = ids.get(key)
            if gid is None:
                m, edges = key
                gid = ids[key] = (first[m - 1]
                                  + cats[m - 1].index_of(SmallGraph(m, edges)))
            row[gid] = row.get(gid, 0) + mu
        rows.append(tuple(x for gid, mu in row.items() if mu
                          for x in (gid, mu)))
    return tuple(rows)


def _labelled_quotients(g: SmallGraph) -> dict[tuple[int, int], int]:
    """(block count, quotient edge bitset) -> sum of Moebius values over the
    partitions of the loop-free g into independent sets, by the block-mask
    recursion of step 3, in the order the leaves are first met."""
    n = g.n
    rows = g.adj_rows()
    members: list[int] = []
    nbrs: list[int] = []
    out: dict[tuple[int, int], int] = {}

    def rec(i: int, mu: int) -> None:
        if i == n:
            key = (len(members), pair_bits(nbrs, members))
            out[key] = out.get(key, 0) + mu
            return
        vertex, adjacent = 1 << i, rows[i]
        for j, block in enumerate(members):
            if block & adjacent:
                continue
            reach = nbrs[j]
            members[j], nbrs[j] = block | vertex, reach | adjacent
            rec(i + 1, -mu * block.bit_count())
            members[j], nbrs[j] = block, reach
        members.append(vertex)
        nbrs.append(adjacent)
        rec(i + 1, mu)
        members.pop()
        nbrs.pop()

    try:
        rec(0, 1)
    finally:
        rec = None  # rec reached itself via its closure cell, a cycle
    return out


def _quotient_map_check(cats):
    # Pairs whose ids are classes on at most k vertices and whose sums are
    # not zero, ending with the row's own class and sum 1.  With every row
    # of even length, the flattened rows alternate id and sum.
    first = sum(c.class_count for c in cats[:-1])
    total = first + cats[-1].class_count
    ends = [(first + i, 1) for i in range(cats[-1].class_count)]

    def check(rows):
        if any(map((1).__and__, map(len, rows))):
            return "a quotient row has even length"
        if list(map(itemgetter(slice(-2, None)), rows)) != ends:
            return "a quotient row ends with its own class and sum 1"
        flat = list(chain.from_iterable(rows))
        ids = flat[0::2]
        if not (0 <= min(ids) and max(ids) < total):
            return "a quotient row's ids are classes on at most k vertices"
        if 0 in flat[1::2]:
            return "a quotient row's sums are not zero"
        return None
    return check


# Per k-vertex class, its quotient classes with their Moebius sums as one
# flat tuple (global class id, sum, global class id, sum, ...).
quotient_rows = ClassMap(
    "quotients", "quotient rows", "# indsub quotient-rows v1",
    ks=range(1, MAX_HOM_VECTOR_K + 1),
    lowest=lambda k: 1,
    compute=compute_quotient_rows,
    check=_quotient_map_check)


@lru_cache(maxsize=64)
def hom_vector(phi: PropertySpec, k: int) -> HomVector:
    if not 1 <= k <= MAX_HOM_VECTOR_K:
        raise ValueError(f"hom_vector supports 1 <= k <= {MAX_HOM_VECTOR_K}")
    cats = [build_catalog(m) for m in range(1, k + 1)]
    spanning = _spanning_subgraph_counts(phi, k)
    # a(C) = s(C)/#Aut(C) = s(C) * copies(C) / k!, where copies(C) =
    # k!/#Aut(C), so sums stay integral until the final division by k!.
    kfact = factorial(k)
    acc: dict[int, int] = {}
    for aut, counts, row in zip(cats[-1].auts, spanning, quotient_rows(k)):
        s = sum(counts[0::2]) - sum(counts[1::2])
        if s == 0:
            continue
        weight = s * (kfact // aut)
        pairs = iter(row)
        for gid, mu in zip(pairs, pairs):
            acc[gid] = acc.get(gid, 0) + weight * mu
    where = [(c, i) for c in cats for i in range(c.class_count)]
    entries = []
    for gid, total in acc.items():
        if total:
            c, i = where[gid]
            entries.append((c.edges[i].bit_count(), c.graph6[i],
                            c.graph(i), Fraction(total, kfact)))
    entries.sort(key=lambda e: e[:2])
    return HomVector(k, tuple(e[2:] for e in entries))


def h_tilde_vector(hv: HomVector) -> tuple[Fraction, ...]:
    """Edge-count marginals of the k-vertex coefficients; k! times this
    vector equals the h-vector of the property's size-k spectrum."""
    d = pair_count(hv.k)
    out = [Fraction(0)] * (d + 1)
    for g, c in hv.k_vertex_entries():
        out[g.edge_count] += c
    return tuple(out)


def witness_dense_graph(hv: HomVector) -> SmallGraph | None:
    """Densest k-vertex pattern carrying a nonzero coefficient, or None
    when the property holds for no k-vertex graph."""
    best = None
    for g, _ in hv.k_vertex_entries():
        if best is None or g.edge_count > best.edge_count:
            best = g
    return best

