import gc
import random
import re
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indsub.catalog import build_catalog
from indsub.counting import _class_decomposition
from indsub.graphs import HostGraph, SmallGraph
from indsub.homcount import (
    MAX_TREEWIDTH_N,
    HomStore,
    TreeDecomposition,
    _bag_table,
    _compiled,
    _contract,
    _plan,
    _shape,
    _source,
    _walk,
    count_hom,
    exact_treewidth,
    tree_decomposition,
)
from oracles import (
    brute_hom_count,
    brute_treewidth,
    elimination_decomposition,
    host_has_edge,
    random_host,
    random_small_graph,
    reference_bag_table,
)


def test_treewidth_known_values():
    assert exact_treewidth(SmallGraph.path(5)) == 1
    assert exact_treewidth(SmallGraph.cycle(6)) == 2
    assert exact_treewidth(SmallGraph.complete(5)) == 4
    assert exact_treewidth(SmallGraph.empty(4)) == 0
    assert exact_treewidth(SmallGraph.empty(0)) == -1
    grid = SmallGraph.from_edges(9, [(r * 3 + c, r * 3 + c + 1)
                                     for r in range(3) for c in range(2)] +
                                    [(r * 3 + c, (r + 1) * 3 + c)
                                     for r in range(2) for c in range(3)])
    assert exact_treewidth(grid) == 3
    assert exact_treewidth(SmallGraph.complete_bipartite(3, 3)) == 3


def test_treewidth_matches_all_orderings_oracle():
    rng = random.Random(41)
    for _ in range(40):
        g = random_small_graph(rng, rng.randrange(1, 8),
                               p=rng.choice([0.2, 0.5, 0.8]))
        assert exact_treewidth(g) == brute_treewidth(g), g.to_graph6()


def test_treewidth_caps():
    with pytest.raises(ValueError):
        exact_treewidth(SmallGraph.empty(MAX_TREEWIDTH_N + 1))
    with pytest.raises(ValueError):
        exact_treewidth(SmallGraph(2, 0, loops=1))


def test_tree_decomposition_is_valid_and_optimal():
    rng = random.Random(42)
    for _ in range(30):
        g = random_small_graph(rng, rng.randrange(1, 9))
        td = tree_decomposition(g)
        td.validate()
        assert td.width == exact_treewidth(g)
        assert len(td.bags) == g.n
        root_count = sum(1 for p in td.parent if p == -1)
        assert root_count == len(g.components())


def test_count_hom_closed_forms():
    k3 = HostGraph.from_small(SmallGraph.complete(3))
    k4 = HostGraph.from_small(SmallGraph.complete(4))
    c5 = HostGraph.from_small(SmallGraph.cycle(5))

    # maps P_n -> K_q: q * (q-1)^(n-1)
    assert count_hom(SmallGraph.path(3), k3) == 3 * 2 * 2
    assert count_hom(SmallGraph.path(4), k4) == 4 * 27
    # homs of C_n into K_q: (q-1)^n + (-1)^n (q-1)
    assert count_hom(SmallGraph.cycle(4), k3) == 2 ** 4 + 2
    assert count_hom(SmallGraph.cycle(5), k4) == 3 ** 5 - 3
    # independent-set-polynomial style: empty pattern counts all maps
    assert count_hom(SmallGraph.empty(3), c5) == 125
    # single vertex
    assert count_hom(SmallGraph.empty(1), c5) == 5
    # no homomorphism from a triangle into a bipartite host
    assert count_hom(SmallGraph.complete(3),
                     HostGraph.from_small(SmallGraph.complete_bipartite(3, 4))) == 0


def test_count_hom_empty_pattern_and_loops():
    host = HostGraph.from_edges(3, [(0, 1)])
    assert count_hom(SmallGraph.empty(0), host) == 1
    assert count_hom(SmallGraph(2, 0, loops=0b11), host) == 0


def test_count_hom_disconnected_pattern_is_product():
    rng = random.Random(43)
    host = random_host(rng, 6)
    a = SmallGraph.path(3)
    b = SmallGraph.complete(2)
    both = SmallGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert count_hom(both, host) == count_hom(a, host) * count_hom(b, host)


def test_count_hom_matches_map_enumeration():
    rng = random.Random(44)
    for _ in range(60):
        pattern = random_small_graph(rng, rng.randrange(1, 5))
        host = random_host(rng, rng.randrange(1, 7),
                           p=rng.choice([0.3, 0.6]))
        assert count_hom(pattern, host) == brute_hom_count(pattern, host), \
            (pattern.to_graph6(), host.to_graph6())


def _connected_pattern(rng, n):
    while True:
        g = random_small_graph(rng, n, p=rng.choice([0.4, 0.6]))
        if len(g.components()) == 1:
            return g


# Connected 5- and 6-vertex patterns whose decompositions hold bags with a
# fill edge: C5 (DLo) and three treewidth-2/3 graphs from the support of
# connected at k = 6; C6 and K3,3 are added below.
FILL_EDGE_PATTERNS = ("DLo", "EBj?", "EImo", "EFz_")


def test_count_hom_matches_map_enumeration_with_fill_edges():
    rng = random.Random(45)
    patterns = [SmallGraph.from_graph6(text) for text in FILL_EDGE_PATTERNS]
    patterns += [SmallGraph.cycle(6), SmallGraph.complete_bipartite(3, 3)]
    patterns += [_connected_pattern(rng, rng.choice([5, 6])) for _ in range(6)]
    for pattern in patterns:
        for _ in range(2):
            host = random_host(rng, rng.randrange(3, 7),
                               p=rng.choice([0.4, 0.7]))
            assert count_hom(pattern, host) == brute_hom_count(pattern, host), \
                (pattern.to_graph6(), host.to_graph6())


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def test_count_hom_cycles_and_stars_on_larger_hosts():
    """hom(C_l, G) = trace(A^l) and hom(K_{1,t}, G) = sum of deg(v)^t, on
    hosts large enough that the DP's join, not the host, bounds the work."""
    rng = random.Random(46)
    for n, p in ((30, 0.2), (45, 0.12), (60, 0.08)):
        host = random_host(rng, n, p)
        a1 = [[1 if host_has_edge(host, u, v) else 0 for v in range(n)]
              for u in range(n)]
        a2 = _matmul(a1, a1)
        a3 = _matmul(a2, a1)
        for length, (x, y) in ((4, (a2, a2)), (5, (a2, a3)), (6, (a3, a3))):
            trace = sum(x[u][v] * y[v][u] for u in range(n) for v in range(n))
            assert count_hom(SmallGraph.cycle(length), host) == trace, (n, length)
        for t in range(1, 6):
            assert count_hom(SmallGraph.complete_bipartite(1, t), host) == \
                sum(len(nbrs) ** t for nbrs in host.neighbors), (n, t)


def test_count_hom_accepts_any_valid_decomposition():
    """Hand-built decompositions: one bag, a path rooted at its far end,
    empty bags as leaf and as root, and an empty bag as a second root."""
    c5 = SmallGraph.cycle(5)
    host = random_host(random.Random(47), 7, p=0.6)
    expected = brute_hom_count(c5, host)
    whole = (0, 1, 2, 3, 4)
    for bags, parent in (((whole,), (-1,)),
                         (((0, 1, 4), (1, 2, 4), (2, 3, 4)), (1, 2, -1)),
                         ((whole, ()), (-1, 0)),
                         (((), whole), (-1, 0)),
                         ((whole, ()), (-1, -1))):
        td = TreeDecomposition(c5, bags, parent)
        td.validate()
        assert count_hom(c5, host, td=td) == expected, bags


@st.composite
def _connected_patterns(draw, max_n=6):
    """A connected pattern on at most max_n vertices: a random spanning
    tree plus random edges."""
    n = draw(st.integers(1, max_n))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        pairs |= draw(st.sets(st.sampled_from(
            [(a, b) for b in range(n) for a in range(b)])))
    return SmallGraph.from_edges(n, pairs)


@st.composite
def _host(draw, max_n):
    host_n = draw(st.integers(1, max_n))
    host_pairs = draw(st.sets(st.sampled_from(
        [(a, b) for b in range(host_n) for a in range(b)]))) if host_n > 1 else ()
    return HostGraph.from_edges(host_n, host_pairs)


@st.composite
def _pattern_host_and_decomposition(draw):
    """Two connected patterns on at most 6 vertices, each with the
    decomposition of a random elimination order, and a host on at most 7
    vertices."""
    cases = []
    for _ in range(2):
        pattern = draw(_connected_patterns())
        cases.append((pattern, elimination_decomposition(
            pattern, draw(st.permutations(range(pattern.n))))))
    return cases, draw(_host(7))


@settings(max_examples=200)
@given(_pattern_host_and_decomposition())
def test_count_hom_matches_map_enumeration_on_any_elimination_order(case):
    cases, host = case
    expected = []
    for pattern, td in cases:
        td.validate()
        assert set(_last_position_writes(pattern, td)) <= {"scalar", "deepest"}
        expected.append(brute_hom_count(pattern, host))
        assert count_hom(pattern, host, td=td) == expected[-1]
        assert _checked_bag_tables(pattern, td, host) == expected[-1]
    # both patterns through one store, their decompositions planned in
    store = HomStore(host)
    for pattern, td in cases:
        store.plan(pattern, td)
    assert [count_hom(pattern, host, store=store)
            for pattern, _ in cases] == expected
    assert not store._tables and not store._reads


def _bag_sources(pattern, td):
    """The generated source of each bag's join, by bag index."""
    plan = _plan(pattern, td)
    return [_source(_shape(plan.orders[b], plan.levels[b], plan.rows,
                           [(c, plan.bags[c]) for c in plan.children[b]])[0])
            for b in range(len(plan.bags))]


def _checked_bag_tables(pattern, td, host):
    """The product of the root tables, every bag's compiled table checked
    against the interpreting reference join, as mappings, on the same
    child tables.  No store: every bag is joined."""
    plan = _plan(pattern, td)
    tables = [None] * len(plan.bags)
    for b, _ in _walk(plan, ()):
        kids = [(plan.bags[c], tables[c]) for c in plan.children[b]]
        tables[b] = _bag_table(plan, b, host, tables)
        assert tables[b] == reference_bag_table(
            host, plan.rows, plan.orders[b], plan.levels[b], kids), \
            (pattern.to_graph6(), td.bags, b)
    return prod(tables[r] for r in plan.roots)


_K13 = SmallGraph.complete_bipartite(1, 3)
_K14 = SmallGraph.complete_bipartite(1, 4)
_K4 = SmallGraph.complete(4)
_P3_EDGE = SmallGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])


# Each case is a decomposition with a bag whose generated source holds the
# given line: a position over all host vertices, over one neighbour list,
# tested against the mask of further pattern-neighbours, over a child trie
# at depth 0 or below, reading three tries (the root of K1,4: a leaf's bag,
# which the centre's bag is contracted into, reads the other leaves'), and
# a scalar and a trie write.  In the last two cases a bag of that kind has a
# child sharing no vertex with it, which counts the edge 3-4 into its
# base: 0 on the edgeless host, where the bag returns at once.
@pytest.mark.parametrize("line, pattern, td", [
    (r"for v0 in range\(n_host\):", SmallGraph.path(3), None),
    (r"for v1 in nbrs\[v0\]:", SmallGraph.path(3), None),
    (r"if not M\d+ >> v\d+ & 1: continue", _K4,
     TreeDecomposition(_K4, ((0, 1, 2), (0, 1, 2, 3)), (-1, 0))),
    (r"for v0, N0_1 in N0_0\.items\(\):", _K13, None),
    (r"for v\d+, N0_[2-9] in N0_[1-9]\.items\(\):", SmallGraph.cycle(5),
     None),
    (r"N2_1 = N2_0\.get\(v0\)", _K14, None),
    (r"total \+= ", SmallGraph.cycle(5), None),
    (r"node\[v2\] = node\.get\(v2, 0\)", SmallGraph.cycle(5), None),
    ("folded scalar", _P3_EDGE,
     TreeDecomposition(_P3_EDGE, ((1, 2), (0, 1), (3, 4)), (-1, 0, 0))),
    ("folded trie", _P3_EDGE,
     TreeDecomposition(_P3_EDGE, ((1, 2), (0, 1), (3, 4)), (-1, 0, 1))),
])
def test_compiled_join_equals_reference_on_each_candidate_source(
        line, pattern, td):
    td = td or tree_decomposition(pattern)
    td.validate()
    if line.startswith("folded"):
        plan = _plan(pattern, td)
        assert [b for b, (_, _, folded) in enumerate(plan.joins)
                if folded and bool(plan.levels[b]) == line.endswith("trie")]
    else:
        assert any(re.search(line, source)
                   for source in _bag_sources(pattern, td))
    rng = random.Random(49)
    hosts = [HostGraph.from_edges(4, ())]
    hosts += [random_host(rng, n, p) for n, p in ((1, 0.0), (5, 1.0),
                                                   (6, 0.5), (7, 0.3))]
    for host in hosts:
        assert _checked_bag_tables(pattern, td, host) == \
            brute_hom_count(pattern, host)


_SOURCE_NAMES = re.compile(r"(v|w|M)\d+|N\d+_\d+|def|return|if|not|for|in|is"
                           r"|None|continue|n_host|adj|nbrs|base|trie|total"
                           r"|node|t|join|range|len|sum|items|get|setdefault"
                           r"|values|bit_count")


def test_generated_source_holds_only_whitelisted_names():
    """Every shape of every connected pattern on at most 6 vertices,
    compiled through the plan: the source holds a few keywords,
    plan-derived names and a fixed vocabulary, and no string literal, and
    the shape cache stays within its bound."""
    sources = set()
    for k in range(1, 7):
        for g in build_catalog(k).graphs():
            if g.is_connected():
                sources.update(_bag_sources(g, tree_decomposition(g)))
    assert len(sources) > 100
    for source in sources:
        assert re.fullmatch(r"[\w \n()\[\]{}:,.=+*&>]*", source), source
        for name in re.findall(r"[A-Za-z_]\w*", source):
            assert _SOURCE_NAMES.fullmatch(name), (name, source)
    info = _compiled.cache_info()
    assert isinstance(info.maxsize, int) and info.maxsize >= len(sources)
    assert info.currsize <= info.maxsize


def test_store_keys_a_sub_pattern_by_its_interface_order():
    """The child bag (0, 1, 2) holds the path 0-1-2 in both patterns, but
    the first parent keys the interface as (0, 1) and the second, whose
    bag lists 1 first, as (1, 0): a table keyed the other way round gives
    deg(0) where deg(1) is meant."""
    g1 = SmallGraph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
    g2 = SmallGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    td1 = TreeDecomposition(g1, ((0, 1, 3), (0, 1, 2)), (-1, 0))
    td2 = TreeDecomposition(g2, ((1, 0, 3), (0, 1, 2)), (-1, 0))
    host = HostGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5),
                                    (0, 5), (1, 5)])
    expected = [brute_hom_count(g, host) for g in (g1, g2)]
    for first, second in (((g1, td1), (g2, td2)), ((g2, td2), (g1, td1))):
        store = HomStore(host)
        store.plan(*first)
        store.plan(*second)
        got = {g: count_hom(g, host, store=store) for g, _ in (first, second)}
        assert [got[g1], got[g2]] == expected


_CONNECTED_CLASSES = [g for k in range(1, 7)
                      for g in build_catalog(k).graphs()
                      if g.is_connected()]


def _plan_decomposition(pattern, td):
    """The plan of td and its bags and parent pointers, as a
    TreeDecomposition of the pattern."""
    plan = _plan(pattern, td)
    parent = [-1] * len(plan.bags)
    for b, kids in enumerate(plan.children):
        for c in kids:
            parent[c] = b
    return plan, TreeDecomposition(pattern, plan.bags, tuple(parent))


def _assert_contracted(pattern, td):
    """The plan's decomposition is valid, as wide as td, made of td's
    bags, and holds no bag contained in a child's bag."""
    plan, contracted = _plan_decomposition(pattern, td)
    contracted.validate()
    assert contracted.width == td.width
    assert set(plan.bags) <= set(td.bags)
    for b, kids in enumerate(plan.children):
        for c in kids:
            assert not set(plan.bags[b]) <= set(plan.bags[c]), \
                (pattern.to_graph6(), td.bags, plan.bags)
    return plan


def test_plan_contracts_every_bag_a_child_contains_on_each_class():
    """Every connected class on at most 6 vertices: the plan keeps
    exactly the bags of its decomposition that no other bag contains, and
    in each bag's join only the first position may range over all host
    vertices."""
    for pattern in _CONNECTED_CLASSES:
        td = tree_decomposition(pattern)
        plan = _assert_contracted(pattern, td)
        maximal = [bag for bag in td.bags
                   if not any(set(bag) < set(other) for other in td.bags)]
        assert plan.bags == tuple(maximal), (pattern.to_graph6(), td.bags)
        for source in _bag_sources(pattern, td):
            assert not re.search(r"for v[1-9]\d* in range", source), source


@settings(max_examples=100, deadline=None)
@given(_pattern_host_and_decomposition())
def test_plan_contracts_every_bag_a_child_contains_on_any_order(case):
    cases, _ = case
    for pattern, td in cases:
        _assert_contracted(pattern, td)


_C5 = SmallGraph.cycle(5)


# Hand-built decompositions that contraction reshapes: a root whose bag
# equals its first child's, listed in another order, and is contained in
# its second child's too, so the first child, once in the root's place, is
# contracted into the second; a chain of three nested bags
# from the root down, the middle one with a second child; and an empty root
# over two children, first for C5 (the second child an empty bag), then for
# a disconnected pattern, whose second component's bag becomes a folded
# child of the first's.
@pytest.mark.parametrize("pattern, bags, parent, planned", [
    (_C5, ((1, 4), (4, 1), (0, 1, 4), (1, 2, 4), (2, 3, 4)),
     (-1, 0, 0, 0, 3), ((0, 1, 4), (1, 2, 4), (2, 3, 4))),
    (_C5, ((4,), (4, 1), (0, 1, 4), (1, 2, 4), (2, 3, 4)), (-1, 0, 1, 1, 3),
     ((0, 1, 4), (1, 2, 4), (2, 3, 4))),
    (_C5, ((), (0, 1, 2, 3, 4), ()), (-1, 0, 0), ((0, 1, 2, 3, 4), ())),
    (_P3_EDGE, ((), (0, 1), (1, 2), (3, 4)), (-1, 0, 1, 0),
     ((0, 1), (1, 2), (3, 4))),
])
def test_count_hom_on_contracted_hand_built_decompositions(
        pattern, bags, parent, planned):
    td = TreeDecomposition(pattern, bags, parent)
    td.validate()
    assert _assert_contracted(pattern, td).bags == planned
    rng = random.Random(50)
    for n, p in ((1, 0.0), (4, 1.0), (6, 0.5), (7, 0.3)):
        host = random_host(rng, n, p)
        expected = brute_hom_count(pattern, host)
        assert count_hom(pattern, host, td=td) == expected
        assert _checked_bag_tables(pattern, td, host) == expected
        store = HomStore(host)
        for g in (pattern, _C5, pattern):
            store.plan(g, td if g is pattern else None)
        assert [count_hom(g, host, store=store)
                for g in (pattern, _C5, pattern)] == \
            [expected, brute_hom_count(_C5, host), expected]
        assert not store._tables and not store._reads


def test_contract_keeps_a_decomposition_without_nested_bags():
    bags, parent = ((0, 1), (1, 2), (2, 3)), (-1, 0, 1)
    assert _contract(bags, parent) == (bags, parent)
    # a leaf contained in its parent stays: only a bag's children take
    # its place
    assert _contract(((0, 1), (1,)), (-1, 0)) == (((0, 1), (1,)), (-1, 0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_CONNECTED_CLASSES),
                          _connected_patterns()), min_size=1, max_size=6),
       _host(5))
def test_one_store_counts_every_pattern_as_alone(patterns, host):
    """Connected patterns, repeats included, planned into one store and
    counted in order match the map enumeration and the lone count_hom."""
    store = HomStore(host)
    for pattern in patterns:
        store.plan(pattern)
    for pattern in patterns:
        got = count_hom(pattern, host, store=store)
        assert got == count_hom(pattern, host)
        assert got == brute_hom_count(pattern, host), \
            (pattern.to_graph6(), host.to_graph6())
    assert not store._tables and not store._reads


def _last_position_writes(pattern, td):
    """How the last-assigned vertex of each non-empty bag of td's plan
    enters the bag's table: the root's 'scalar', 'sum' when the parent does
    not share the vertex, else 'deepest' or 'inner' by the parent's trie
    level it keys.  The DP implements only 'scalar' and 'deepest'."""
    plan = _plan(pattern, td)
    writes = []
    for bag, order, levels in zip(plan.bags, plan.orders, plan.levels):
        if not bag:
            continue
        last = order[-1]
        writes.append("scalar" if not levels else "sum" if last not in levels
                      else "deepest" if last == levels[-1] else "inner")
    return writes


_K4_MINUS_EDGE = SmallGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


# In the deepest cases a bag that writes that way has first multiplied in a
# child's count, so a write that drops this weight fails.  The third case's
# greedy order would place the parent's deepest key before the last
# position, and the fourth's would end on a vertex the parent does not share.
@pytest.mark.parametrize("write, pattern, td", [
    ("scalar", SmallGraph.cycle(5),
     TreeDecomposition(SmallGraph.cycle(5), ((0, 1, 2, 3, 4),), (-1,))),
    ("deepest", SmallGraph.cycle(5),
     elimination_decomposition(SmallGraph.cycle(5), (0, 2, 1, 3, 4))),
    ("deepest", _K4_MINUS_EDGE,
     elimination_decomposition(_K4_MINUS_EDGE, (0, 1, 3, 2))),
    ("deepest", SmallGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)]),
     TreeDecomposition(SmallGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)]),
                       ((0, 1), (0, 1, 2), (1, 3)), (-1, 0, 1))),
])
def test_count_hom_each_way_the_last_position_writes(write, pattern, td):
    td.validate()
    writes = _last_position_writes(pattern, td)
    assert write in writes
    assert set(writes) <= {"scalar", "deepest"}
    rng = random.Random(48)
    for n, p in ((1, 0.0), (4, 1.0), (6, 0.5), (7, 0.3)):
        host = random_host(rng, n, p)
        assert count_hom(pattern, host, td=td) == brute_hom_count(pattern, host)


@pytest.mark.parametrize("k", range(1, 7))
def test_join_order_ends_on_parents_deepest_key(k):
    """On every connected class, in the plan of the stored-order
    decomposition count_basis plans, each non-root bag shares a vertex with
    its parent and assigns the vertex the parent keys deepest last."""
    for pattern in build_catalog(k).graphs():
        if not pattern.is_connected():
            continue
        plan = _plan(pattern, _class_decomposition(pattern))
        for b, (order, levels) in enumerate(zip(plan.orders, plan.levels)):
            if b in plan.roots:
                continue
            assert levels and order[-1] == levels[-1], \
                (pattern.edges, plan.bags[b])


def test_count_hom_leaves_no_cyclic_garbage():
    c5 = SmallGraph.cycle(5)
    host = HostGraph.from_small(c5)
    # a star and a path share their leaves' tables through the store
    star, p4 = SmallGraph.complete_bipartite(1, 3), SmallGraph.path(4)
    gc.collect()
    gc.disable()
    try:
        assert count_hom(c5, host) == 10
        assert gc.collect() == 0
        store = HomStore(host)
        for pattern in (star, p4, c5, star):
            store.plan(pattern)
        assert [count_hom(pattern, host, store=store)
                for pattern in (star, p4, c5, star)] == [40, 40, 10, 40]
        del store
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_hom_rejects_foreign_decomposition():
    td = tree_decomposition(SmallGraph.path(3))
    host = HostGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        count_hom(SmallGraph.complete(3), host, td=td)
    # a disconnected pattern is checked before it is split into components
    with pytest.raises(ValueError):
        count_hom(SmallGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
                  HostGraph.from_small(SmallGraph.complete(4)), td=td)
    # matching decomposition is accepted
    assert count_hom(SmallGraph.path(3), host,
                     td=tree_decomposition(SmallGraph.path(3))) == 2
    # invalid decompositions of the pattern itself: an uncovered edge, the
    # bags holding vertex 0 disconnected, bags cut off from the root by a
    # parent cycle, a parent index out of range and a bag with no parent
    # entry.  Unchecked, into K3 they count 18, 36, 6, IndexError and 6
    p3, k3 = SmallGraph.path(3), HostGraph.from_small(SmallGraph.complete(3))
    assert count_hom(p3, k3) == 12
    for bags, parent in ((((0, 1), (2,)), (-1, 0)),
                         (((0, 1), (1, 2), (0,)), (-1, 0, 1)),
                         (((0, 1), (1, 2), (1, 2)), (-1, 2, 1)),
                         (((0, 1), (1, 2)), (-1, 5)),
                         (((0, 1), (1, 2)), (-1,))):
        with pytest.raises(ValueError, match="invalid tree decomposition"):
            count_hom(p3, k3, td=TreeDecomposition(p3, bags, parent))


def test_count_hom_rejects_a_store_beside_a_decomposition_or_another_host():
    p3, k3 = SmallGraph.path(3), HostGraph.from_small(SmallGraph.complete(3))
    store = HomStore(k3)
    store.plan(p3)
    with pytest.raises(ValueError, match="a decomposition is planned into a "
                                         "store, not passed beside one"):
        count_hom(p3, k3, td=tree_decomposition(p3), store=store)
    with pytest.raises(ValueError,
                       match="the store counts into a different host"):
        count_hom(p3, HostGraph.from_small(SmallGraph.complete(4)),
                  store=store)
    # an equal host built apart is the same host
    assert count_hom(p3, HostGraph.from_small(SmallGraph.complete(3)),
                     store=store) == 12
