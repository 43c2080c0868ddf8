import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from indsub import spectrum
from indsub.errors import InternalConsistencyError
from indsub.graphs import SmallGraph, pair_count
from indsub.properties import BUILTIN_PROPERTIES, get_property
from indsub.spectrum import (
    BirkhoffMatrix,
    FPolynomial,
    derivative_vanishing_matrix,
    f_vector,
    h_vector,
    hamming_weight,
    max_nonzero_index,
    polya_poised,
    spectrum_report,
)
from oracles import (
    determinant_poised,
    reference_derivative_at,
    reference_evaluate,
)


def brute_f_vector(phi, k):
    d = pair_count(k)
    out = [0] * (d + 1)
    for mask in range(1 << d):
        g = SmallGraph(k, mask)
        if phi(g):
            out[g.edge_count] += 1
    return tuple(out)


@pytest.mark.parametrize("name", sorted(BUILTIN_PROPERTIES))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_f_vector_matches_mask_sweep(name, k):
    phi = get_property(name)
    assert f_vector(phi, k) == brute_f_vector(phi, k)


def test_f_vector_known_values():
    assert f_vector(get_property("no-edges"), 4) == (1, 0, 0, 0, 0, 0, 0)
    assert f_vector(get_property("true"), 3) == (1, 3, 3, 1)
    assert f_vector(get_property("edge-count-even"), 3) == (1, 0, 3, 0)
    # connected on 3 vertices: the 3 paths and the triangle
    assert f_vector(get_property("connected"), 3) == (0, 0, 3, 1)
    assert f_vector(get_property("false"), 3) == (0, 0, 0, 0)


def test_f_vector_large_k_uses_catalog_weights():
    # k=7 sweep would be 2^21 evaluations; the catalog route must agree
    # with the binomial row for the always-true property.
    f = f_vector(get_property("true"), 7)
    assert f == tuple(comb(21, i) for i in range(22))
    f = f_vector(get_property("no-edges"), 7)
    assert f == (1,) + (0,) * 21


def test_h_vector_binomial_identity():
    # For the always-true property f_i = C(d,i) and h = (1,0,...,0,... )
    # shifted: sum_i (-1)^(l-i) C(d-i, l-i) C(d,i) = C(d,l) sum (-1)...
    for k in (2, 3, 4):
        f = f_vector(get_property("true"), k)
        h = h_vector(f)
        d = pair_count(k)
        for ell in range(d + 1):
            expected = sum((-1) ** (ell - i) * comb(d - i, ell - i) * f[i]
                           for i in range(ell + 1))
            assert h[ell] == expected


def test_h_vector_inverts_back_to_f():
    # f_i = sum_l C(d-l, i-l) h_l reverses the alternating transform.
    for name in ("connected", "bipartite", "split"):
        f = f_vector(get_property(name), 4)
        h = h_vector(f)
        d = pair_count(4)
        for i in range(d + 1):
            assert f[i] == sum(comb(d - ell, i - ell) * h[ell]
                               for ell in range(i + 1))


def test_hamming_weight_and_max_nonzero():
    assert hamming_weight((1, 0, 2, 0)) == 2
    assert hamming_weight((0, 0)) == 0
    assert max_nonzero_index((1, 0, 2, 0)) == 2
    assert max_nonzero_index((0, 0)) == -1


def test_f_polynomial_evaluation():
    f = (1, 2, 1)                      # d=2: x^2 + 2x + 1 = (x+1)^2
    poly = FPolynomial.from_f_vector(f)
    assert reference_evaluate(poly.coefficients, Fraction(0)) == 1
    assert reference_evaluate(poly.coefficients, Fraction(-1)) == 0
    assert reference_evaluate(poly.coefficients, Fraction(2)) == 9
    assert poly.derivative_at(1, Fraction(-1)) == 0
    assert poly.derivative_at(2, Fraction(-1)) == 2


@pytest.mark.parametrize("name", sorted(BUILTIN_PROPERTIES))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_derivative_identities(name, k):
    phi = get_property(name)
    f = f_vector(phi, k)
    h = h_vector(f)
    d = pair_count(k)
    poly = FPolynomial.from_f_vector(f)
    for j in range(d + 1):
        assert poly.derivative_at(j, Fraction(0)) == f[d - j] * factorial(j)
        assert poly.derivative_at(j, Fraction(-1)) == factorial(j) * h[d - j]


@settings(max_examples=100)
@given(st.lists(st.integers(), min_size=1, max_size=67),
       st.one_of(st.sampled_from([0, -1, Fraction(0), Fraction(-1)]),
                 st.fractions()))
def test_derivative_at_matches_fraction_reference(coefficients, x):
    poly = FPolynomial(tuple(coefficients))
    for j in range(len(coefficients) + 1):
        got = poly.derivative_at(j, x)
        assert got == reference_derivative_at(poly.coefficients, j, x)
        if isinstance(x, int):
            assert type(got) is int


def test_derivative_at_rejects_negative_order():
    with pytest.raises(ValueError):
        FPolynomial((1, 2)).derivative_at(-1, 0)


@pytest.mark.parametrize("ell", range(pair_count(4) + 1))
def test_spectrum_report_catches_an_h_entry_off_by_one(monkeypatch, ell):
    # The check at 0 reads f only, so the check at -1 for j = d - ell fires.
    def h_off_by_one(f):
        h = list(h_vector(f))
        h[ell] += 1
        return tuple(h)
    monkeypatch.setattr(spectrum, "h_vector", h_off_by_one)
    j = pair_count(4) - ell
    with pytest.raises(InternalConsistencyError,
                       match=f"identity at -1 fails for j={j}$"):
        spectrum_report(get_property("connected"), 4)


def test_spectrum_report_catches_a_perturbed_coefficient(monkeypatch):
    # The constant term P(0) must be f_d; with it off by one the check at
    # 0 fires for j = 0, before the check at -1.
    exact = FPolynomial.from_f_vector

    def perturbed(f):
        c = exact(f).coefficients
        return FPolynomial((c[0] + 1,) + c[1:])
    monkeypatch.setattr(FPolynomial, "from_f_vector", perturbed)
    with pytest.raises(InternalConsistencyError,
                       match="identity at 0 fails for j=0"):
        spectrum_report(get_property("connected"), 4)


@pytest.mark.parametrize("d", range(6))
def test_polya_checker_matches_determinant_oracle(d):
    width = d + 1
    for bits in itertools.combinations(range(2 * width), width):
        rows = [[0] * width, [0] * width]
        for b in bits:
            rows[b // width][b % width] = 1
        matrix = BirkhoffMatrix((tuple(rows[0]), tuple(rows[1])))
        assert polya_poised(matrix) == determinant_poised(rows, d), rows


def test_polya_requires_square_system():
    matrix = BirkhoffMatrix(((1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        polya_poised(matrix)


def test_derivative_vanishing_matrix_structure():
    f = (1, 0, 3, 0, 1, 0, 0)          # d=6, hw=3
    matrix = derivative_vanishing_matrix(f)
    d = len(f) - 1
    assert sum(matrix.rows[0]) + sum(matrix.rows[1]) == d + 1
    # node -1 row: orders 0..hw-1
    assert matrix.rows[0] == (1, 1, 1, 0, 0, 0, 0)
    # node 0 row: orders j with f_{d-j} = 0 (f_6, f_5, f_3, f_1 here)
    assert matrix.rows[1] == (1, 1, 0, 1, 0, 1, 0)


@pytest.mark.parametrize("name", sorted(BUILTIN_PROPERTIES))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_spectrum_report_consistency(name, k):
    phi = get_property(name)
    spec = spectrum_report(phi, k)
    d = pair_count(k)
    assert spec.d == d
    assert spec.f == f_vector(phi, k)
    assert spec.h == h_vector(spec.f)
    assert spec.hamming_weight == hamming_weight(spec.f)
    assert spec.beta == d - spec.hamming_weight
    assert spec.max_nonzero_h_index == max_nonzero_index(spec.h)
    if spec.hamming_weight > 0:
        assert spec.max_nonzero_h_index >= spec.beta + 1
    assert spec.poised == determinant_poised(
        [list(r) for r in derivative_vanishing_matrix(spec.f).rows], d)


def test_spectrum_poised_always_true_for_observed_f_vectors():
    # the vanishing pattern derived from any f-vector satisfies the
    # prefix condition by construction; double-check on every builtin
    for name in sorted(BUILTIN_PROPERTIES):
        for k in (2, 3, 4, 5):
            assert spectrum_report(get_property(name), k).poised
