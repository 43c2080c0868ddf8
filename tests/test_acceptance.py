"""Acceptance suite: ten exact criteria, one pass/fail line each.

Every criterion compares the package against an independent computation
(direct enumeration, exhaustive orbit partitioning, exact linear algebra,
or a closed form); all comparisons are exact with zero tolerance.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from indsub.catalog import build_catalog
from indsub.counting import count_basis, count_brute
from indsub.graphs import HostGraph, SmallGraph
from indsub.hombasis import h_tilde_vector, hom_vector, witness_dense_graph
from indsub.homcount import count_hom
from indsub.hardness import turan_check
from indsub.hereditary import (
    bipartition_of,
    bounded_critical_check,
    count_independent_sets_via_reduction,
    singleton_critical_edge,
    twin_partition,
)
from indsub.properties import BUILTIN_PROPERTIES, get_property
from indsub.spectrum import (
    BirkhoffMatrix,
    FPolynomial,
    f_vector,
    h_vector,
    hamming_weight,
    polya_poised,
)

from oracles import (
    brute_hom_count,
    brute_independent_set_count,
    determinant_poised,
    extension_counts_by_class,
    orbit_partition,
    random_bipartite_host,
    random_host,
    random_small_graph,
)


# The ten properties named by the basis-brute criterion (planar is exercised
# separately by the Turán criterion and the per-module tests).
CRITERION_1_PROPERTIES = (
    "true", "false", "no-edges", "connected", "bipartite",
    "triangle-free", "edge-count-even", "chordal", "split", "perfect",
)

ALL_BUILTINS = tuple(sorted(BUILTIN_PROPERTIES))


@contextmanager
def criterion(capsys, number, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")


def test_criterion_1_basis_equals_brute(capsys):
    with criterion(capsys, 1, "basis-brute equivalence"):
        rng = random.Random(0xACC1)
        properties = {name: get_property(name)
                      for name in CRITERION_1_PROPERTIES}
        for _ in range(50):
            n = rng.randint(8, 12)
            host = random_host(rng, n, p=rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)))
            hom_cache: dict = {}
            for k in (2, 3, 4, 5):
                for name, phi in properties.items():
                    brute = count_brute(phi, k, host)
                    basis = count_basis(phi, k, host, hom_cache=hom_cache)
                    assert basis == brute, (name, k, host.n)


def test_criterion_2_h_tilde_identity(capsys):
    with criterion(capsys, 2, "k! * h-tilde = h"):
        cases = [(name, k) for name in ALL_BUILTINS for k in (1, 2, 3, 4, 5)]
        cases += [(name, 6) for name in ("no-edges", "connected",
                                         "triangle-free")]
        for name, k in cases:
            phi = get_property(name)
            ht = h_tilde_vector(hom_vector(phi, k))
            h = h_vector(f_vector(phi, k))
            kfact = factorial(k)
            assert tuple(kfact * c for c in ht) == h, (name, k)


def test_criterion_3_dense_witness(capsys):
    with criterion(capsys, 3, "dense support witness"):
        for name in ALL_BUILTINS:
            phi = get_property(name)
            for k in (1, 2, 3, 4, 5):
                f = f_vector(phi, k)
                hw = hamming_weight(f)
                if hw == 0:
                    continue
                d = comb(k, 2)
                witness = witness_dense_graph(hom_vector(phi, k))
                assert witness is not None, (name, k)
                assert witness.n == k
                assert witness.edge_count >= d - hw + 1, (name, k)


def test_criterion_4_derivative_identities(capsys):
    with criterion(capsys, 4, "f-polynomial derivative identities"):
        for name in ALL_BUILTINS:
            phi = get_property(name)
            for k in (1, 2, 3, 4, 5):
                f = f_vector(phi, k)
                h = h_vector(f)
                d = comb(k, 2)
                poly = FPolynomial.from_f_vector(f)
                for j in range(d + 1):
                    jfact = factorial(j)
                    assert poly.derivative_at(j, Fraction(0)) == \
                        f[d - j] * jfact, (name, k, j)
                    assert poly.derivative_at(j, Fraction(-1)) == \
                        jfact * h[d - j], (name, k, j)


def test_criterion_5_polya_vs_determinant(capsys):
    with criterion(capsys, 5, "Polya poisedness vs determinant oracle"):
        checked = 0
        for d in range(6):
            width = d + 1
            cells = 2 * width
            for ones in combinations(range(cells), width):
                flat = [0] * cells
                for pos in ones:
                    flat[pos] = 1
                rows = (tuple(flat[:width]), tuple(flat[width:]))
                got = polya_poised(BirkhoffMatrix(rows))
                want = determinant_poised(rows, d)
                assert got == want, (d, rows)
                checked += 1
        assert checked == sum(comb(2 * (d + 1), d + 1) for d in range(6))


def test_criterion_6_extension_closed_form(capsys):
    with criterion(capsys, 6, "extension-count closed form"):
        for n in range(1, 6):
            d = comb(n, 2)
            for h in build_catalog(n).graphs():
                e = h.edge_count
                for ell in range(d + 1):
                    total = sum(extension_counts_by_class(h, ell).values())
                    want = comb(d - e, ell - e) if ell >= e else 0
                    assert total == want, (h.to_graph6(), ell)


def test_criterion_7_turan_vanishing(capsys):
    with criterion(capsys, 7, "Turan vanishing thresholds"):
        for name in ("triangle-free", "planar"):
            phi = get_property(name)
            chk = turan_check(phi, 5)
            assert chk.ok, name
            f = f_vector(phi, 5)
            for i in range(len(f)):
                if i > chk.threshold:
                    assert f[i] == 0, (name, i)
        # Spot the parameters: forbidden K3 gives r=3, forbidden K5 r=5.
        assert turan_check(get_property("triangle-free"), 5).r == 3
        assert turan_check(get_property("planar"), 5).r == 5


def test_criterion_8_hereditary_suite(capsys):
    with criterion(capsys, 8, "hereditary critical-edge suite"):
        c5 = SmallGraph.cycle(5)
        c4 = SmallGraph.cycle(4)
        two_k2 = SmallGraph.from_edges(4, [(0, 1), (2, 3)])
        examples = (
            (get_property("perfect"), c5, (0, 1)),
            (get_property("chordal"), c4, (0, 1)),
            (get_property("split"), two_k2, (0, 1)),
        )
        # (a) the three worked examples survive the full grid at bound 4
        for phi, h, edge in examples:
            res = bounded_critical_check(phi, h, edge, bound=4)
            assert res.status == "consistent", phi.name
            assert res.checked == 25

        # (b) a proven singleton-twin edge exists for every graph on
        #     2..6 vertices, on the graph side or the complement side
        for n in range(2, 7):
            for g in build_catalog(n).graphs():
                cert = singleton_critical_edge(g)
                side = g.complement() if cert.in_complement else g
                singles = twin_partition(side).singleton_vertices()
                a, b = cert.edge
                assert side.has_edge(a, b)
                assert a in singles and b in singles

        # (c) the reduction reproduces brute-force independent-set counts
        rng = random.Random(0xACC8)
        for trial in range(20):
            left = rng.randint(1, 6)
            right = rng.randint(1, min(6, 12 - left))
            host = random_bipartite_host(rng, left, right, p=rng.choice((0.3, 0.6)))
            parts = bipartition_of(host)
            assert parts is not None
            k = rng.randint(1, 4)
            want = brute_independent_set_count(host, k)
            for phi, h, edge in examples:
                got = count_independent_sets_via_reduction(
                    host, parts, k, phi, h, edge)
                assert got == want, (phi.name, trial, k)


def test_criterion_9_hom_count_oracle(capsys):
    with criterion(capsys, 9, "hom-count DP vs map enumeration"):
        rng = random.Random(0xACC9)
        for _ in range(100):
            pattern = random_small_graph(rng, rng.randint(1, 5))
            host = random_host(rng, rng.randint(1, 8), p=rng.choice((0.3, 0.5, 0.7)))
            assert count_hom(pattern, host) == brute_hom_count(pattern, host)


def test_criterion_10_catalog_cardinalities(capsys):
    with criterion(capsys, 10, "catalog cardinalities"):
        known = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
        for k in range(1, 7):
            cat = build_catalog(k)
            orbits = orbit_partition(k)
            assert cat.class_count == len(orbits) == known[k]
        for k in (7, 8):
            cat = build_catalog(k)
            assert cat.class_count == known[k]
            kfact = factorial(k)
            total = 0
            for aut in cat.auts:
                assert kfact % aut == 0
                total += kfact // aut
            assert total == 1 << comb(k, 2)
