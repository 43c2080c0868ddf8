import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import indsub
from indsub.catalog import build_catalog
from indsub.errors import FormatError, PredicateError, UnknownPropertyError
from indsub.graphs import MAX_SMALL_VERTICES, SmallGraph, pair_table
from indsub.properties import (
    BUILTIN_PROPERTIES,
    PropertySpec,
    contains_induced,
    contains_subgraph,
    evaluate,
    forbidden_induced_property,
    forbidden_subgraph_property,
    get_property,
    invert,
    load_truth_table,
    truth_table_property,
    verify_flags,
)
from oracles import (
    brute_contains_induced,
    brute_contains_subgraph,
    brute_planar,
    labelled_verify_flags,
    random_small_graph,
)


def all_graphs(max_n):
    for k in range(1, max_n + 1):
        yield from build_catalog(k).graphs()


# ------------------------------------------------ reference predicates

def ref_connected(g):
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    adj = g.adj_rows()
    while frontier:
        v = frontier.pop()
        for w in range(g.n):
            if adj[v] >> w & 1 and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def ref_bipartite(g):
    color = {}
    adj = g.adj_rows()
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in range(g.n):
                if adj[v] >> w & 1:
                    if w not in color:
                        color[w] = color[v] ^ 1
                        stack.append(w)
                    elif color[w] == color[v]:
                        return False
    return True


def ref_triangle_free(g):
    return not any(g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                   for a, b, c in itertools.combinations(range(g.n), 3))


def ref_chordal(g):
    """Every cycle of length >= 4 has a chord: check all vertex subsets
    that induce a cycle."""
    for size in range(4, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            ind = g.induced(sub)
            degs = ind.degrees()
            if all(d == 2 for d in degs) and ind.is_connected():
                return False
    return True


def ref_split(g):
    """Some clique/independent-set bipartition of the vertices exists."""
    verts = range(g.n)
    for r in range(g.n + 1):
        for clique in itertools.combinations(verts, r):
            cs = set(clique)
            if not all(g.has_edge(a, b)
                       for a, b in itertools.combinations(clique, 2)):
                continue
            rest = [v for v in verts if v not in cs]
            if not any(g.has_edge(a, b)
                       for a, b in itertools.combinations(rest, 2)):
                return True
    return False


def ref_perfect(g):
    """No induced odd cycle of length >= 5 in the graph or complement."""
    def has_odd_hole(h):
        for size in range(5, h.n + 1, 2):
            for sub in itertools.combinations(range(h.n), size):
                ind = h.induced(sub)
                if all(d == 2 for d in ind.degrees()) and ind.is_connected():
                    return True
        return False
    return not has_odd_hole(g) and not has_odd_hole(g.complement())


REFERENCES = {
    "connected": ref_connected,
    "bipartite": ref_bipartite,
    "triangle-free": ref_triangle_free,
    "chordal": ref_chordal,
    "split": ref_split,
    "perfect": ref_perfect,
    "no-edges": lambda g: g.edge_count == 0,
    "edge-count-even": lambda g: g.edge_count % 2 == 0,
    "true": lambda g: True,
    "false": lambda g: False,
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_builtin_predicates_match_references(name):
    phi = get_property(name)
    ref = REFERENCES[name]
    for g in all_graphs(6):
        assert evaluate(phi, g) == ref(g), g.to_graph6()


def test_planar_matches_minor_oracle():
    phi = get_property("planar")
    for g in all_graphs(6):
        assert evaluate(phi, g) == brute_planar(g), g.to_graph6()


def nx_planar(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_pairs())
    return nx.check_planarity(h)[0]


def test_planar_matches_networkx_on_every_k7_class():
    phi = get_property("planar")
    for g in build_catalog(7).graphs():
        assert evaluate(phi, g) == nx_planar(g), g.to_graph6()


@st.composite
def sparse_small_graphs(draw):
    # n to 3n edges: mostly between the cyclomatic shortcut and Euler's
    # bound, where the path-addition test runs.
    n = draw(st.integers(0, MAX_SMALL_VERTICES))
    pairs = pair_table(n)
    m = draw(st.integers(min(n, len(pairs)), min(len(pairs), 3 * n)))
    chosen = draw(st.randoms(use_true_random=False)).sample(pairs, m)
    return SmallGraph.from_edges(n, chosen)


@settings(max_examples=300)
@given(sparse_small_graphs())
def test_planar_matches_networkx_on_random_graphs(g):
    assert evaluate(get_property("planar"), g) == nx_planar(g), g.to_graph6()


def _subdivided(n, pairs, extra):
    """Put one new vertex on each edge in turn, extra vertices in all."""
    pairs = list(pairs)
    for i in range(extra):
        a, b = pairs.pop(0)
        pairs += [(a, n + i), (n + i, b)]
    return SmallGraph.from_edges(n + extra, pairs)


def _disjoint(*graphs):
    pairs, n = [], 0
    for g in graphs:
        pairs += [(a + n, b + n) for a, b in g.edge_pairs()]
        n += g.n
    return SmallGraph.from_edges(n, pairs)


_K5 = SmallGraph.complete(5)
_K33 = SmallGraph.complete_bipartite(3, 3)
_PETERSEN = SmallGraph.from_edges(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
_ICOSAHEDRON = SmallGraph.from_edges(
    12, [(0, i) for i in range(1, 6)] + [(11, i) for i in range(6, 11)]
    + [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, (i - 5) % 5 + 6) for i in range(6, 11)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i, i % 5 + 6) for i in range(1, 6)])
_GRID4 = SmallGraph.from_edges(
    16, [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)])
_TWO_K5_AT_A_VERTEX = SmallGraph.from_edges(
    9, _K5.edge_pairs() + [(a + 4, b + 4) for a, b in _K5.edge_pairs()])

NAMED_PLANARITY = [
    ("K5", _K5, False),
    ("K5 minus an edge", _K5.without_edge(0, 1), True),
    ("K3,3", _K33, False),
    ("K3,3 minus an edge", _K33.without_edge(0, 3), True),
    ("Petersen", _PETERSEN, False),
    ("icosahedron", _ICOSAHEDRON, True),
    ("K3,3 subdivided to 16 vertices", _subdivided(6, _K33.edge_pairs(), 10),
     False),
    ("two K5 sharing a cut vertex", _TWO_K5_AT_A_VERTEX, False),
    ("K4 plus a disjoint K3,3", _disjoint(SmallGraph.complete(4), _K33),
     False),
    ("4x4 grid", _GRID4, True),
]


@pytest.mark.parametrize("name,g,planar", NAMED_PLANARITY,
                         ids=[case[0] for case in NAMED_PLANARITY])
def test_planar_named_graphs(name, g, planar):
    assert evaluate(get_property("planar"), g) is planar
    assert nx_planar(g) is planar


def test_named_graph_shapes():
    assert (_ICOSAHEDRON.n, _ICOSAHEDRON.edge_count) == (12, 30)
    assert set(_ICOSAHEDRON.degrees()) == {5}
    assert (_PETERSEN.n, _PETERSEN.edge_count) == (10, 15)
    assert (_GRID4.n, _GRID4.edge_count) == (16, 24)
    assert _TWO_K5_AT_A_VERTEX.edge_count == 20


_NO_NETWORKX = """
import sys
import indsub
from indsub import cli
code = cli.main(["diagnose", "--property", "planar", "--kmax", "6"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""


def test_planar_diagnose_does_not_import_networkx():
    src = Path(indsub.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _NO_NETWORKX], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out.splitlines()[-1] == "0 []"


def test_get_property_unknown_name():
    with pytest.raises(UnknownPropertyError) as err:
        get_property("shiny")
    assert "shiny" in str(err.value)
    assert "connected" in str(err.value)   # lists the known names


def test_flags_verify_for_all_builtins():
    for name in sorted(BUILTIN_PROPERTIES):
        violations = verify_flags(get_property(name), 5)
        assert not violations, (name, violations)


def test_verify_flags_catches_lies():
    bogus = PropertySpec(name="bogus-monotone",
                         predicate=lambda g: g.edge_count == 1,
                         monotone=True)
    violations = verify_flags(bogus, 4)
    assert any(v.flag == "monotone" for v in violations)

    bogus = PropertySpec(name="bogus-hereditary",
                         predicate=lambda g: g.n == 2,
                         hereditary=True)
    assert any(v.flag == "hereditary" for v in verify_flags(bogus, 4))

    bogus = PropertySpec(name="bogus-sparse",
                         predicate=lambda g: True,
                         sparse_bound=0)
    assert any(v.flag.startswith("sparse") for v in verify_flags(bogus, 4))

    # connectivity is not a function of the edge count: at k=4, m=3 both
    # the path and the disjoint triangle occur
    bogus = PropertySpec(name="bogus-eco",
                         predicate=lambda g: g.is_connected(),
                         edge_count_only=True)
    assert any(v.flag == "edge-count-only" for v in verify_flags(bogus, 4))


def _declared_case(name):
    """A property with declared flags, by name; built lazily because the
    truth table needs the catalogs."""
    if name in BUILTIN_PROPERTIES:
        return get_property(name)
    if name == "connected-flagged":
        return get_property("connected")._replace(
            monotone=True, hereditary=True, edge_count_only=True,
            sparse_bound=1)
    if name == "chordal-flagged":
        return get_property("chordal")._replace(
            monotone=True, edge_count_only=True, sparse_bound=2)
    if name == "nonempty":
        return PropertySpec("nonempty", lambda g: g.n != 0, monotone=True,
                            hereditary=True)
    rng = random.Random(7)
    tables = {k: "".join(rng.choice("01")
                         for _ in range(build_catalog(k).class_count))
              for k in range(1, 6)}
    return truth_table_property(tables)._replace(
        monotone=True, hereditary=True, edge_count_only=True, sparse_bound=1)


@pytest.mark.parametrize("name", sorted(BUILTIN_PROPERTIES) + [
    "connected-flagged", "chordal-flagged", "nonempty", "truth-table"])
def test_verify_flags_matches_labelled_reference(name):
    phi = _declared_case(name)
    for k_max in range(1, 7):
        assert verify_flags(phi, k_max) == labelled_verify_flags(phi, k_max)
    if name not in BUILTIN_PROPERTIES:
        assert verify_flags(phi, 6)


def test_negate_and_invert():
    rng = random.Random(31)
    conn = get_property("connected")
    for _ in range(25):
        g = random_small_graph(rng, rng.randrange(7))
        assert evaluate(invert(conn), g) == evaluate(conn, g.complement())
    assert invert(get_property("chordal")).hereditary


def test_contains_induced_and_subgraph():
    c4 = SmallGraph.cycle(4)
    k4 = SmallGraph.complete(4)
    p3 = SmallGraph.path(3)
    assert contains_subgraph(k4, c4)          # C4 sits inside K4
    assert not contains_induced(k4, c4)       # but never as induced
    assert contains_induced(c4, p3)
    paw = SmallGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert contains_induced(paw, SmallGraph.complete(3))
    assert not contains_induced(SmallGraph.cycle(5), SmallGraph.complete(3))
    # C5 has independence number 2, so no induced empty triple
    assert not contains_induced(SmallGraph.cycle(5), SmallGraph(3))


def test_containment_matches_oracles_on_catalog_pairs():
    patterns = [h for k in range(1, 5) for h in build_catalog(k).graphs()]
    hosts = [g for k in range(1, 7) for g in build_catalog(k).graphs()]
    for h in patterns:
        for g in hosts:
            assert contains_induced(g, h) == brute_contains_induced(g, h), \
                (g.to_graph6(), h.to_graph6())
            assert contains_subgraph(g, h) == brute_contains_subgraph(g, h), \
                (g.to_graph6(), h.to_graph6())


@st.composite
def labelled_graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    return SmallGraph(n, draw(st.integers(0, (1 << len(pair_table(n))) - 1)))


@settings(max_examples=200)
@given(labelled_graphs(7), labelled_graphs(5))
def test_containment_matches_oracles_on_random_pairs(g, h):
    assert contains_induced(g, h) == brute_contains_induced(g, h)
    assert contains_subgraph(g, h) == brute_contains_subgraph(g, h)


def test_forbidden_induced_property_matches_definition():
    rng = random.Random(32)
    gamma = (SmallGraph.cycle(4), SmallGraph.complete(3))
    phi = forbidden_induced_property(gamma)
    for _ in range(30):
        g = random_small_graph(rng, rng.randrange(7))
        expected = not any(brute_contains_induced(g, h) for h in gamma)
        assert evaluate(phi, g) == expected
    assert phi.hereditary


def test_forbidden_subgraph_property_matches_definition():
    rng = random.Random(33)
    gamma = (SmallGraph.complete(3),)
    phi = forbidden_subgraph_property(gamma)
    tf = get_property("triangle-free")
    for _ in range(30):
        g = random_small_graph(rng, rng.randrange(7))
        assert evaluate(phi, g) == evaluate(tf, g)
    assert phi.monotone and phi.hereditary


def test_truth_table_property(tmp_path):
    cat = build_catalog(3)
    bits = "".join("1" if e.bit_count() % 2 == 0 else "0"
                   for e in cat.edges)
    phi = truth_table_property({3: bits}, name="table-even")
    eco = get_property("edge-count-even")
    for g in cat.graphs():
        assert evaluate(phi, g) == evaluate(eco, g)
    # relabelings look up through the canonical form
    assert evaluate(phi, SmallGraph.from_edges(3, [(0, 2), (2, 1)]))
    # sizes without a table row never satisfy the property
    assert not evaluate(phi, SmallGraph.complete(2))

    path = tmp_path / "table.txt"
    path.write_text(f"k=3\n{bits}\n")
    assert load_truth_table(path) == {3: bits}
    phi2 = truth_table_property(load_truth_table(path))
    assert evaluate(phi2, SmallGraph(3))

    bad = tmp_path / "bad.txt"
    bad.write_text("k=3\n10\n")
    with pytest.raises(FormatError):
        truth_table_property(load_truth_table(bad))


def test_truth_table_rejects_repeated_section(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("k=2\n01\nk=2\n10\n")
    with pytest.raises(FormatError, match="repeated section for k=2"):
        load_truth_table(path)


def test_truth_table_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "table.txt"
    path.write_bytes(b"k=3\n\xff\xfe\n")
    with pytest.raises(FormatError) as err:
        load_truth_table(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("k", [0, -1, 99])
def test_truth_table_rejects_k_without_catalog(k):
    with pytest.raises(FormatError):
        truth_table_property({k: "1"})


def test_predicate_errors_are_wrapped():
    phi = PropertySpec(name="crashy",
                       predicate=lambda g: 1 // 0)
    with pytest.raises(PredicateError) as err:
        evaluate(phi, SmallGraph.complete(3))
    assert "Bw" in str(err.value)


