import gc
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from indsub.canon import (
    _canonical_data,
    _refined_cells,
    automorphism_count,
    automorphism_generators,
    canon_key,
    canonical_form,
    is_isomorphic,
    refinement_invariant,
)
from indsub.catalog import build_catalog
from indsub.graphs import SmallGraph, pair_count
from oracles import (
    _reference_refined_colors,
    brute_automorphism_count,
    brute_is_isomorphic,
    orbit_partition,
    random_small_graph,
    reference_canonical_data,
)


def petersen() -> SmallGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return SmallGraph.from_edges(10, outer + inner + spokes)


def test_canonical_form_is_isomorphic_to_input():
    rng = random.Random(11)
    for _ in range(40):
        g = random_small_graph(rng, rng.randrange(8))
        form = canonical_form(g)
        cf = form.graph()
        assert cf.n == g.n and cf.edge_count == g.edge_count
        assert brute_is_isomorphic(g, cf)
        assert g.relabel(form.relabeling) == cf


def test_canon_key_constant_on_relabelings():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(1, 7)
        g = random_small_graph(rng, n)
        key = canon_key(g)
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canon_key(g.relabel(perm)) == key


def test_canon_key_separates_all_classes_up_to_5():
    for n in range(6):
        masks_by_key = {}
        for mask in range(1 << pair_count(n)):
            masks_by_key.setdefault(canon_key(SmallGraph(n, mask)), []).append(mask)
        orbits = {frozenset(o) for o in orbit_partition(n)}
        assert {frozenset(ms) for ms in masks_by_key.values()} == orbits


def test_refinement_invariant_constant_on_relabelings():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randrange(1, 10)
        g = random_small_graph(rng, n)
        inv = refinement_invariant(g)
        assert inv[:2] == (n, g.edge_count)
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            assert refinement_invariant(g.relabel(perm)) == inv


def test_canon_leaves_no_cyclic_garbage():
    c6 = SmallGraph.cycle(6)
    gc.collect()
    gc.disable()
    try:
        assert automorphism_count(c6) == 12
        assert len(automorphism_generators(c6)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_is_isomorphic_matches_brute():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(7)
        a = random_small_graph(rng, n)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            b = a.relabel(perm)
        else:
            b = random_small_graph(rng, n)
        assert is_isomorphic(a, b) == brute_is_isomorphic(a, b)


def test_automorphism_counts_match_brute():
    rng = random.Random(14)
    for _ in range(30):
        g = random_small_graph(rng, rng.randrange(1, 7))
        assert automorphism_count(g) == brute_automorphism_count(g)


def test_automorphism_known_values():
    assert automorphism_count(SmallGraph.complete(4)) == 24
    assert automorphism_count(SmallGraph.cycle(5)) == 10
    assert automorphism_count(SmallGraph.path(4)) == 2
    assert automorphism_count(SmallGraph.complete_bipartite(3, 3)) == 72
    assert automorphism_count(SmallGraph(5)) == 120
    assert automorphism_count(SmallGraph.from_edges(4, [(0, 1), (2, 3)])) == 8


def test_petersen_automorphisms():
    assert automorphism_count(petersen()) == 120


# The canonical form fixes catalog order and truth-table indexing, so the
# fast canoniser must reproduce the reference one exactly: the form, the
# relabeling that reaches it and the automorphism count.  Both callers are
# checked: the public functions, and the core that the catalog builder
# calls on neighbor rows.

def _check_against_reference(g: SmallGraph) -> None:
    form, aut = reference_canonical_data(g)
    assert canonical_form(g) == form, g
    assert canon_key(g) == (form.n, form.edges), g
    assert automorphism_count(g) == aut, g
    ordering, edges, core_aut = _canonical_data(g.n, g.adj_rows())
    assert (edges, core_aut) == (form.edges, aut), g
    assert [form.relabeling[v] for v in ordering] == list(range(g.n)), g


def _twin_rich_graphs(rng: random.Random) -> list[SmallGraph]:
    """K_n, empty graphs, stars, complete multipartite graphs and threshold
    graphs on 7 and 8 vertices, then two graphs whose one cell holds both
    a twin pair and a non-twin pair (C4 + K3 and C4 + C4), so that the
    search meets a candidate that is a twin of the best one.  Each graph
    comes relabelled at random, and so does its complement, whose cells
    are twins exactly where the graph's are, unless it is K_n or the
    empty graph, whose complement is already listed."""
    graphs = []
    for n in (7, 8):
        graphs += [SmallGraph.complete(n), SmallGraph(n),
                   SmallGraph.complete_bipartite(1, n - 1)]
        for _ in range(3):
            part = [rng.randrange(3) for _ in range(n)]
            graphs.append(SmallGraph.from_edges(n, [
                (u, v) for u, v in itertools.combinations(range(n), 2)
                if part[u] != part[v]]))
            # Each new vertex joins all earlier ones or none of them.
            graphs.append(SmallGraph.from_edges(n, [
                (u, v) for v in range(1, n) if rng.random() < 0.5
                for u in range(v)]))
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    graphs.append(SmallGraph.from_edges(7, c4 + [(4, 5), (5, 6), (6, 4)]))
    graphs.append(SmallGraph.from_edges(
        8, c4 + [(u + 4, v + 4) for u, v in c4]))
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        out.append(h)
        if 0 < g.edge_count < pair_count(g.n):
            out.append(h.complement())
    return out


@pytest.mark.parametrize("n", range(7))
def test_canon_matches_reference_on_every_graph(n):
    for mask in range(1 << pair_count(n)):
        _check_against_reference(SmallGraph(n, mask))


def _larger_samples() -> list[SmallGraph]:
    """Named graphs on 8 to 12 vertices, random ones on 7 to 12, a random
    relabelling of each, then _twin_rich_graphs."""
    rng = random.Random(41)
    graphs = [petersen(), SmallGraph.cycle(12),
              SmallGraph.complete_bipartite(4, 4),
              SmallGraph.from_edges(9, [(3 * b + i, 3 * b + (i + 1) % 3)
                                        for b in range(3) for i in range(3)])]
    for n in range(7, 13):
        for p in (0.2, 0.5, 0.8):
            for _ in range(12):
                graphs.append(random_small_graph(rng, n, p))
    for g in list(graphs):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    return graphs + _twin_rich_graphs(rng)


def test_canon_matches_reference_on_larger_samples():
    for g in _larger_samples():
        _check_against_reference(g)


# The refinement's ordered cells fix the search's candidates, and with
# them every canonical form, so they are pinned to the reference colour
# classes directly, in colour order.

def _check_refinement_against_reference(g: SmallGraph) -> None:
    rows = g.adj_rows()
    colours = _reference_refined_colors(g.n, rows)
    cells = [sum(1 << v for v in range(g.n) if colours[v] == c)
             for c in sorted(set(colours))]
    assert _refined_cells(g.n, rows) == cells, g


@pytest.mark.parametrize("n", range(7))
def test_refinement_matches_reference_on_every_graph(n):
    for mask in range(1 << pair_count(n)):
        _check_refinement_against_reference(SmallGraph(n, mask))


def test_refinement_matches_reference_on_larger_samples():
    for g in _larger_samples():
        _check_refinement_against_reference(g)


def _group_order(n, gens) -> int:
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        elem = frontier.pop()
        for gen in gens:
            prod = tuple(gen[elem[v]] for v in range(n))
            if prod not in seen:
                seen.add(prod)
                frontier.append(prod)
    return len(seen)


def test_automorphism_generators_generate_the_group():
    assert automorphism_generators(SmallGraph(0)) == []
    assert automorphism_generators(SmallGraph.path(1)) == []
    graphs = [g for k in range(1, 7) for g in build_catalog(k).graphs()]
    graphs.append(petersen())
    for g in graphs + _twin_rich_graphs(random.Random(44)):
        gens = automorphism_generators(g)
        for gen in gens:
            assert sorted(gen) == list(range(g.n))
            assert g.relabel(gen) == g
        assert _group_order(g.n, gens) == automorphism_count(g), g


@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_orbit_size_times_aut_is_factorial(n, rnd):
    g = random_small_graph(rnd, n)
    aut = automorphism_count(g)
    distinct = len({tuple(sorted(
        (min(p[a], p[b]), max(p[a], p[b])) for a, b in g.edge_pairs()))
        for p in itertools.permutations(range(n))})
    import math
    assert aut * distinct == math.factorial(n)
