import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from indsub.catalog import build_catalog
from indsub.errors import FormatError
from indsub.graphs import (
    MAX_SMALL_VERTICES,
    HostGraph,
    SmallGraph,
    bits_of,
    pair_count,
    pair_index,
    pair_table,
    parse_graph_text,
    reach,
    load_graph_list,
    load_host_graph,
    load_small_graph,
    _decode_graph6,
    _encode_graph6,
    _pair_index_map,
)
from oracles import (
    host_complement,
    induced_small,
    random_small_graph,
    reference_decode_graph6,
)


def test_pair_indexing_round_trip():
    for n in range(8):
        pairs = pair_table(n)
        assert len(pairs) == pair_count(n) == n * (n - 1) // 2
        for i, (a, b) in enumerate(pairs):
            assert a < b
            assert pair_index(n, a, b) == i
            assert pair_index(n, b, a) == i


def test_from_edges_checks_vertex_count_before_indexing_pairs():
    tables = _pair_index_map.cache_info().currsize
    with pytest.raises(ValueError):
        SmallGraph.from_edges(MAX_SMALL_VERTICES + 1, [(0, 1)])
    assert _pair_index_map.cache_info().currsize == tables


def test_bits_of():
    assert list(bits_of(0)) == []
    assert list(bits_of(0b10110)) == [1, 2, 4]


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
    assert SmallGraph.empty(5).edge_count == 0
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
    g = SmallGraph.empty(3)
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


def test_connectivity_and_components():
    assert SmallGraph.cycle(5).is_connected()
    assert not SmallGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
    comps = SmallGraph.from_edges(5, [(0, 3), (1, 2)]).components()
    assert sorted(tuple(sorted(c)) for c in comps) == [(0, 3), (1, 2), (4,)]
    assert SmallGraph.empty(1).is_connected()
    assert SmallGraph.empty(0).is_connected()


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
        assert HostGraph.from_graph6(host.to_graph6()) == host


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
        assert HostGraph.from_small(g).to_graph6() == text
        assert SmallGraph.from_graph6(text) == g


@st.composite
def _graph6_hosts(draw):
    """graph6 text of a random graph on at most 300 vertices, dense or
    sparse, whose padding bits past the last pair are set at random."""
    n = draw(st.integers(0, 300))
    p = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    bits = [int(rng.random() < p) for _ in range(pair_count(n))]
    bits += [draw(st.integers(0, 1)) for _ in range(-len(bits) % 6)]
    return _encode_graph6(n, bits)


@settings(max_examples=60, deadline=None)
@given(_graph6_hosts())
def test_decode_graph6_matches_pair_walk(text):
    assert _decode_graph6(text) == reference_decode_graph6(text)


def test_edge_list_text_round_trip():
    g = SmallGraph.cycle(6)
    n, pairs = parse_graph_text(g.to_edge_list_text())
    assert SmallGraph.from_edges(n, pairs) == g
