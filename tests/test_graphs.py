import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from indsub import graphs
from indsub.catalog import build_catalog
from indsub.errors import FormatError
from indsub.graphs import (
    MAX_SMALL_VERTICES,
    HostGraph,
    SmallGraph,
    bits_of,
    pair_bits,
    pair_count,
    pair_index,
    pair_table,
    parse_graph_text,
    reach,
    subset_sums,
    two_colouring,
    load_graph_list,
    load_host_graph,
    load_small_graph,
    _decode_graph6,
    _pair_index_map,
    _small_graph6,
)
from oracles import (
    edge_list_text,
    graph6_text,
    host_complement,
    host_graph6,
    induced_small,
    random_host,
    random_small_graph,
    reference_decode_graph6,
    reference_graph6,
    reference_host_table_valid,
    relabeled_edge_mask,
)


def test_pair_indexing_round_trip():
    for n in range(8):
        pairs = pair_table(n)
        assert len(pairs) == pair_count(n) == n * (n - 1) // 2
        for i, (a, b) in enumerate(pairs):
            assert a < b
            assert pair_index(n, a, b) == i
            assert pair_index(n, b, a) == i


@pytest.mark.parametrize("i,j", [(2, 2), (0, 5), (-1, 0), (7, 1)])
def test_bad_vertex_pair_is_a_value_error(i, j):
    # the message names the pair, smaller vertex first
    pair = re.escape(f"({min(i, j)},{max(i, j)})")
    g = SmallGraph(5, 0)
    for op in (g.has_edge, g.with_edge, g.without_edge):
        with pytest.raises(ValueError, match=pair):
            op(i, j)


def test_from_edges_checks_vertex_count_before_indexing_pairs():
    tables = _pair_index_map.cache_info().currsize
    with pytest.raises(ValueError):
        SmallGraph.from_edges(MAX_SMALL_VERTICES + 1, [(0, 1)])
    assert _pair_index_map.cache_info().currsize == tables


def test_bits_of(monkeypatch):
    assert bits_of(0) == ()
    assert bits_of(0b10110) == (1, 2, 4)
    assert type(bits_of(1 << 15)) is tuple
    # Room for every vertex mask of a SmallGraph.
    assert bits_of.cache_info().maxsize == 1 << MAX_SMALL_VERTICES

    # Edge bitsets stay out of the cache: edge_pairs reads byte tables.
    def refuse(mask):
        raise AssertionError(f"bits_of({mask}) called")
    monkeypatch.setattr(graphs, "bits_of", refuse)
    assert SmallGraph.cycle(4).edge_pairs() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def _decoded_by_pair_table(g):
    """g's edge pairs and neighbor rows, read bit by bit off pair_table."""
    pairs = [p for t, p in enumerate(pair_table(g.n)) if g.edges >> t & 1]
    rows = [0] * g.n
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return pairs, rows


def test_byte_table_decoders_match_pair_table():
    # Every labelled graph with n <= 5, and 50 seeded graphs for each n up
    # to 16: rows fill all 16 bits of their field at n = 16, the last byte
    # of the bitset is partial for most n, and n <= 1 has no pair.
    graphs_ = [SmallGraph(n, e) for n in range(6)
               for e in range(1 << pair_count(n))]
    rng = random.Random(37)
    graphs_ += [SmallGraph(n, rng.getrandbits(pair_count(n)))
                for n in range(MAX_SMALL_VERTICES + 1) for _ in range(50)]
    graphs_ += [SmallGraph.complete(n) for n in range(MAX_SMALL_VERTICES + 1)]
    before = bits_of.cache_info()
    for g in graphs_:
        assert (g.edge_pairs(), g.adj_rows()) == _decoded_by_pair_table(g), g
    # Edge bitsets stay out of bits_of's cache.
    assert bits_of.cache_info() == before


def test_subset_sums_matches_naive_reference():
    # Int weights hold 0 to 3 bits each, pairwise disjoint, so the table's
    # + must agree with |; one-pair tuples concatenate lowest bit first.
    rng = random.Random(39)
    for size in range(9):
        free = rng.sample(range(64), 64)
        masks = [sum(1 << free.pop() for _ in range(rng.randrange(4)))
                 for _ in range(size + 1)]
        pairs = [(p,) for p in rng.sample(pair_table(8), size + 1)]
        for weights, start, fold in (
                (masks[1:], 0, lambda a, b: a | b),
                (masks[1:], masks[0], lambda a, b: a | b),
                (pairs[1:], (), lambda a, b: a + b),
                (pairs[1:], pairs[0], lambda a, b: a + b)):
            table = subset_sums(weights, start)
            assert len(table) == 1 << size
            for d, entry in enumerate(table):
                expected = start
                for b in bits_of(d):
                    expected = fold(expected, weights[b])
                assert entry == expected, (weights, start, d)
    assert subset_sums([]) == [0]
    assert subset_sums([], ()) == [()]


def test_from_edges_round_trip():
    g = SmallGraph.from_edges(4, [(0, 1), (2, 1), (3, 0), (0, 1)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.edge_pairs() == [(0, 1), (0, 3), (1, 2)]
    assert g.has_edge(1, 0) and g.has_edge(2, 1) and not g.has_edge(0, 2)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        SmallGraph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        SmallGraph.from_edges(17, [])
    with pytest.raises(ValueError):
        SmallGraph.from_edges(-1, [])


def test_constructors():
    assert SmallGraph.complete(4).edge_count == 6
    assert SmallGraph(5).edge_count == 0
    assert SmallGraph.cycle(5).edge_count == 5
    assert SmallGraph.path(4).edge_count == 3
    assert SmallGraph.complete_bipartite(3, 3).edge_count == 9
    assert sorted(SmallGraph.cycle(4).degrees()) == [2, 2, 2, 2]
    assert sorted(SmallGraph.path(4).degrees()) == [1, 1, 2, 2]
    assert sorted(SmallGraph.complete_bipartite(1, 3).degrees()) == [1, 1, 1, 3]


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(20):
        g = random_small_graph(rng, rng.randrange(7))
        assert g.complement().complement() == g
        assert g.edge_count + g.complement().edge_count == pair_count(g.n)


def test_with_without_edge():
    g = SmallGraph(3)
    g2 = g.with_edge(0, 2)
    assert g2.has_edge(0, 2) and not g.has_edge(0, 2)
    assert g2.without_edge(0, 2) == g


def test_relabel_and_induced():
    g = SmallGraph.path(4)                      # 0-1-2-3
    h = g.relabel((3, 2, 1, 0))
    assert h == g                               # reversal is an automorphism
    sub = g.induced((0, 1, 3))
    assert sub.n == 3 and sub.edge_pairs() == [(0, 1)]
    assert g.delete_vertex(0) == SmallGraph.path(3)


def _naive_pair_bits(rows, masks):
    # pair (a, b), a < b, is bit a(2n - a - 1)/2 + b - a - 1: lexicographic
    n = len(rows)
    return sum(1 << a * (2 * n - a - 1) // 2 + b - a - 1
               for a in range(n) for b in range(a + 1, n)
               if rows[a] & masks[b])


@pytest.mark.parametrize("n", range(MAX_SMALL_VERTICES + 1))
def test_pair_bits_matches_naive_reference(n):
    rng = random.Random(n)
    for _ in range(50):
        density = rng.choice((1, 4, 16))
        rows = [rng.getrandbits(16) if rng.randrange(density) else 0
                for _ in range(n)]
        masks = [rng.getrandbits(16) if rng.randrange(2) else 1 << rng.randrange(16)
                 for _ in range(n)]
        assert pair_bits(rows, masks) == _naive_pair_bits(rows, masks)


@pytest.mark.parametrize("make, message", [
    (lambda: SmallGraph.path(3).relabel((0, 1, 0)), "not a permutation"),
    (lambda: SmallGraph(3).relabel((5, 5, 5)), "not a permutation"),
    (lambda: SmallGraph.path(3).relabel((0, 1)), "not a permutation"),
    (lambda: SmallGraph.path(4).induced([9]), "not distinct vertices"),
    (lambda: SmallGraph.path(4).induced([1, 1]), "not distinct vertices"),
    (lambda: SmallGraph.path(4).induced([-1, 2]), "not distinct vertices"),
], ids=["repeated", "out-of-range", "short", "induced-out-of-range",
        "induced-repeated", "induced-negative"])
def test_relabel_and_induced_reject_bad_vertex_lists(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def _every_graph(max_n):
    for n in range(max_n + 1):
        for edges in range(1 << pair_count(n)):
            yield SmallGraph(n, edges)


def test_relabel_matches_oracle_on_every_small_graph():
    rng = random.Random(5)
    for g in _every_graph(5):
        for _ in range(3):
            perm = rng.sample(range(g.n), g.n)
            assert g.relabel(perm).edges == relabeled_edge_mask(g, perm), (g, perm)


def test_induced_matches_has_edge_reference_on_every_small_graph():
    for g in _every_graph(5):
        for subset in range(1 << g.n):
            vs = list(bits_of(subset))
            want = [(i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
                    if g.has_edge(vs[i], vs[j])]
            assert g.induced(vs[::-1]) == SmallGraph.from_edges(len(vs), want)


def test_connectivity_and_components():
    assert SmallGraph.cycle(5).is_connected()
    assert not SmallGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
    comps = SmallGraph.from_edges(5, [(0, 3), (1, 2)]).components()
    assert sorted(tuple(sorted(c)) for c in comps) == [(0, 3), (1, 2), (4,)]
    assert SmallGraph(1).is_connected()
    assert SmallGraph(0).is_connected()


def _nx_components(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edge_pairs())
    return sorted(sorted(c) for c in nx.connected_components(nxg))


def _check_connectivity(g):
    comps = _nx_components(g)
    assert sorted(g.components()) == comps, g.to_graph6()
    assert g.is_connected() == (len(comps) <= 1), g.to_graph6()
    rows = g.adj_rows()
    full = (1 << g.n) - 1
    for comp in comps:
        mask = sum(1 << v for v in comp)
        assert reach(rows, 1 << comp[-1], full) == mask
        assert reach(rows, mask, full) == mask


def test_connectivity_matches_networkx_on_catalog_classes():
    for k in range(1, 7):
        for g in build_catalog(k).graphs():
            _check_connectivity(g)


def test_connectivity_matches_networkx_on_random_graphs():
    rng = random.Random(26)
    for _ in range(60):
        n = rng.randrange(10, 17)
        p = rng.choice((0.1, 0.2, 0.3))
        _check_connectivity(random_small_graph(rng, n, p))


def test_reach_stays_within_the_mask():
    rows = SmallGraph.path(5).adj_rows()        # 0-1-2-3-4
    # 2 is in the mask but its neighbours 1 and 3 are not
    assert reach(rows, 1 << 2, 0b10101) == 1 << 2
    assert reach(rows, 1 << 0, 0b11011) == 0b00011
    assert reach(rows, 1 << 0 | 1 << 4, 0b11011) == 0b11011
    # a start vertex outside the mask is ignored
    assert reach(rows, 1 << 2, 0b11011) == 0
    assert reach(rows, 1 << 2, 0) == 0
    rng = random.Random(27)
    for _ in range(40):
        g = random_small_graph(rng, rng.randrange(10, 17), 0.25)
        sub = sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        start = rng.randrange(len(sub))
        comp = next(c for c in _nx_components(g.induced(sub)) if start in c)
        assert reach(g.adj_rows(), 1 << sub[start], sum(1 << v for v in sub)) \
            == sum(1 << sub[i] for i in comp)


def _check_two_colouring(n, pairs, neighbours):
    """two_colouring agrees with networkx, every edge joins the two colours
    and each component's least vertex has colour 0."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(pairs)
    colour = two_colouring(neighbours)
    assert (colour is not None) == nx.is_bipartite(nxg)
    if colour is not None:
        assert len(colour) == n and set(colour) <= {0, 1}
        assert all(colour[u] != colour[v] for u, v in pairs)
        assert all(colour[min(c)] == 0 for c in nx.connected_components(nxg))


@st.composite
def _graph_pairs(draw, max_n):
    """(n, edge pairs) on n <= max_n vertices, each pair present with one
    probability from 0 to 1/2, so that graphs come edgeless, disconnected
    or dense.  Half of them keep only the pairs that cross a random cut,
    which leaves them bipartite, and then may gain one more pair."""
    n = draw(st.integers(0, max_n))
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from((0.0, 0.04, 0.1, 0.25, 0.5)))
    every = [(u, v) for v in range(n) for u in range(v)]
    pairs = {e for e in every if rng.random() < p}
    if every and draw(st.booleans()):
        side = rng.getrandbits(n)
        pairs = {(u, v) for u, v in pairs if (side >> u ^ side >> v) & 1}
        if draw(st.booleans()):
            pairs.add(rng.choice(every))
    return n, sorted(pairs)


@given(_graph_pairs(MAX_SMALL_VERTICES))
def test_two_colouring_of_small_graphs_matches_networkx(graph):
    n, pairs = graph
    g = SmallGraph.from_edges(n, pairs)
    _check_two_colouring(n, pairs, [bits_of(r) for r in g.adj_rows()])


@given(_graph_pairs(40))
def test_two_colouring_of_hosts_matches_networkx(graph):
    n, pairs = graph
    _check_two_colouring(n, pairs, HostGraph.from_edges(n, pairs).neighbors)


def test_adj_rows_match_edges():
    rng = random.Random(2)
    for _ in range(15):
        g = random_small_graph(rng, rng.randrange(1, 8))
        rows = g.adj_rows()
        for a in range(g.n):
            for b in range(g.n):
                assert bool(rows[a] >> b & 1) == (a != b and g.has_edge(a, b))


@given(st.integers(0, 7), st.integers(0, 2 ** 21 - 1))
def test_graph6_round_trip_small(n, seed):
    mask = seed & ((1 << pair_count(n)) - 1)
    g = SmallGraph(n, mask)
    assert SmallGraph.from_graph6(g.to_graph6()) == g


def test_graph6_known_values():
    assert SmallGraph.complete(3).to_graph6() == "Bw"
    assert SmallGraph.from_graph6("Bw") == SmallGraph.complete(3)
    c5 = SmallGraph.from_graph6("DqK")
    assert c5.n == 5 and c5.edge_count == 5
    assert sorted(c5.degrees()) == [2, 2, 2, 2, 2] and c5.is_connected()


def test_graph6_rejects_garbage():
    with pytest.raises(FormatError):
        SmallGraph.from_graph6("not a graph!")
    with pytest.raises(FormatError):
        SmallGraph.from_graph6("")
    with pytest.raises(FormatError):
        SmallGraph.from_graph6("Bw extra")


def test_host_graph_construction_and_bits():
    host = HostGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert host.neighbors == ((1,), (0, 2), (1, 3), (2,))
    assert host.edge_count == 3
    assert host.adj_bits == (0b0010, 0b0101, 0b1010, 0b0100)
    assert host.edge_pairs() == [(0, 1), (1, 2), (2, 3)]


def test_host_graph_validation():
    with pytest.raises(ValueError):
        HostGraph(2, ((1,), ()))            # asymmetric
    with pytest.raises(ValueError):
        HostGraph(1, ((0,),))               # loop
    with pytest.raises(ValueError):
        HostGraph(2, ((1, 1), (0,)))        # duplicate
    with pytest.raises(ValueError, match="size mismatch"):
        HostGraph(2, ((1,),))
    with pytest.raises(ValueError, match="size mismatch"):
        HostGraph(-1, ())
    with pytest.raises(ValueError, match="neighbor 2 out of range"):
        HostGraph(2, ((2,), ()))


def _table_edits(rng, n, rows):
    """The table rows, as (vertex count, table), and single edits of it:
    one direction of an edge dropped, an entry repeated, two entries
    swapped, a loop, an entry n or -1, and the last row dropped, with the
    vertex count kept and with it one less."""
    def edit(u, row):
        return rows[:u] + (tuple(row),) + rows[u + 1:]

    yield n, rows
    full = [u for u in range(n) if rows[u]]
    if full:
        u = rng.choice(full)
        i = rng.randrange(len(rows[u]))
        yield n, edit(u, rows[u][:i] + rows[u][i + 1:])
        yield n, edit(u, rows[u][:i + 1] + rows[u][i:])
    two = [u for u in range(n) if len(rows[u]) > 1]
    if two:
        u = rng.choice(two)
        i, j = sorted(rng.sample(range(len(rows[u])), 2))
        row = list(rows[u])
        row[i], row[j] = row[j], row[i]
        yield n, edit(u, row)
    if n:
        u = rng.randrange(n)
        yield n, edit(u, sorted(rows[u] + (u,)))
        yield n, edit(u, rows[u] + (n,))
        yield n, edit(u, (-1,) + rows[u])
        yield n, rows[:-1]
        yield n - 1, rows[:-1]


def test_host_graph_accepts_exactly_the_reference_tables():
    """HostGraph(n, table) raises ValueError exactly when the per-entry
    reference rules reject the table, on random hosts and single edits of
    their tables; an accepted table is kept as given."""
    rng = random.Random(41)
    verdicts = set()
    for n in range(31):
        for p in (0.1, 0.5, 0.9):
            rows = random_host(rng, n, p).neighbors
            for m, table in _table_edits(rng, n, rows):
                valid = reference_host_table_valid(m, table)
                verdicts.add(valid)
                if valid:
                    assert HostGraph(m, table).neighbors == table
                else:
                    with pytest.raises(ValueError):
                        HostGraph(m, table)
    assert verdicts == {True, False}


def test_host_graph_rejects_a_table_of_lists():
    """A table must be the tuples the one rule builds, so that the host
    can be hashed: the same rows as lists are rejected."""
    rows = HostGraph.from_edges(3, [(0, 1), (1, 2)]).neighbors
    with pytest.raises(ValueError, match="not sorted, unique and symmetric"):
        HostGraph(3, [list(row) for row in rows])


@pytest.mark.parametrize("n, edges, message", [
    (17, 0, "vertex count 17 outside 0..16"),
    (-1, 0, "vertex count -1 outside 0..16"),
    (3, 8, "edge bitset out of range"),
    (3, -1, "edge bitset out of range"),
    (0, 1, "edge bitset out of range"),
])
def test_small_graph_validation(n, edges, message):
    with pytest.raises(ValueError, match=message):
        SmallGraph(n, edges)


def test_host_induced_and_delete():
    host = HostGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub = induced_small(host, (0, 1, 2))
    assert sub.edge_pairs() == [(0, 1), (1, 2)]
    smaller = host.delete_vertices([4])
    assert smaller.n == 4 and smaller.edge_count == 3
    assert host_complement(host).edge_count == pair_count(5) - 5


def test_host_small_round_trip():
    rng = random.Random(3)
    for _ in range(15):
        g = random_small_graph(rng, rng.randrange(9))
        host = HostGraph.from_small(g)
        assert induced_small(host, range(g.n)) == g
        assert HostGraph.from_graph6(host_graph6(host)) == host


def test_parse_edge_list_text():
    n, pairs = parse_graph_text("# comment\n4 3\n0 1\n1 2\n2 3\n")
    assert n == 4 and sorted(pairs) == [(0, 1), (1, 2), (2, 3)]
    n, pairs = parse_graph_text("3\n")
    assert n == 3 and pairs == []


@pytest.mark.parametrize("text", [
    "",
    "4 1\n0 0\n",             # loop
    "4 1\n0 9\n",             # out of range
    "4 2\n0 1\n",             # header count mismatch
    "4 3 1\n",                # bad header
    "Bw\nBw\n",               # two graph6 lines for a single graph
])
def test_parse_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_graph_text(text)


def test_file_loaders(tmp_path):
    g6 = tmp_path / "g.g6"
    g6.write_text(SmallGraph.cycle(4).to_graph6() + "\n")
    assert load_small_graph(g6) == SmallGraph.cycle(4)
    assert load_host_graph(g6).edge_count == 4

    lst = tmp_path / "list.g6"
    lst.write_text("Bw\nDqK\n# note\n\n")
    graphs = load_graph_list(lst)
    assert [g.n for g in graphs] == [3, 5]

    bad = tmp_path / "bad.g6"
    bad.write_text("!!!\n")
    with pytest.raises(FormatError) as err:
        load_small_graph(bad)
    assert str(bad) in str(err.value)
    with pytest.raises(FormatError):
        load_graph_list(tmp_path / "missing.g6")


@pytest.mark.parametrize("loader",
                         [load_host_graph, load_small_graph, load_graph_list])
def test_loaders_reject_non_utf8_files(tmp_path, loader):
    path = tmp_path / "binary.g6"
    path.write_bytes(b"\xff\xfe" + "Bw\n".encode("utf-16-le"))
    with pytest.raises(FormatError) as err:
        loader(path)
    assert str(path) in str(err.value)


def test_edge_list_header_vertex_cap(tmp_path):
    # A bare header declares that many isolated vertices; above the graph6
    # limit it is rejected before a host allocates anything per vertex.
    path = tmp_path / "header.txt"
    for header in ("100000000", "258048"):
        path.write_text(header)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                load_host_graph(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
    assert parse_graph_text("258047") == (258047, [])


def test_graph6_writers_agree():
    rng = random.Random(31)
    for n in range(12):
        g = random_small_graph(rng, n)
        text = g.to_graph6()
        assert host_graph6(HostGraph.from_small(g)) == text
        assert SmallGraph.from_graph6(text) == g


@pytest.mark.parametrize("k", range(1, 9))
def test_graph6_tables_match_the_bit_writer_on_every_class(k):
    cat = build_catalog(k)
    for i, edges in enumerate(cat.edges):
        assert _small_graph6(k, edges) == reference_graph6(cat.graph(i))


def test_graph6_tables_match_the_bit_writer_on_random_graphs():
    rng = random.Random(32)
    for n in range(MAX_SMALL_VERTICES + 1):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            for _ in range(8):
                g = random_small_graph(rng, n, p)
                assert g.to_graph6() == reference_graph6(g), g


@st.composite
def _graph6_hosts(draw):
    """graph6 text of a random graph on at most 300 vertices, dense or
    sparse, whose padding bits past the last pair are set at random."""
    n = draw(st.integers(0, 300))
    p = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    bits = [int(rng.random() < p) for _ in range(pair_count(n))]
    bits += [draw(st.integers(0, 1)) for _ in range(-len(bits) % 6)]
    return graph6_text(n, bits)


@settings(max_examples=60, deadline=None)
@given(_graph6_hosts())
def test_decode_graph6_matches_pair_walk(text):
    assert _decode_graph6(text) == reference_decode_graph6(text)


def test_edge_list_text_round_trip():
    g = SmallGraph.cycle(6)
    n, pairs = parse_graph_text(edge_list_text(g))
    assert SmallGraph.from_edges(n, pairs) == g
