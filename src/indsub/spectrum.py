"""Edge-count spectra of a property at fixed size k.

f_i counts labeled k-vertex graphs with i edges satisfying the property.
The h-vector is the alternating binomial transform of f, the f-polynomial
packs f into coefficients of descending powers, and the two are linked by
derivative evaluations at 0 and -1.  The Birkhoff machinery decides when a
two-row derivative-interpolation scheme at nodes {-1, 0} determines a
degree-d polynomial, which is what connects vanishing spectrum entries to
lower bounds elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .catalog import build_catalog
from .errors import InternalConsistencyError
from .graphs import pair_count
from .properties import PropertySpec, class_values


def f_vector(phi: PropertySpec, k: int) -> tuple[int, ...]:
    """(f_0, ..., f_d) with d = C(k,2); f_i = #labeled k-vertex graphs with
    i edges satisfying phi, summed over isomorphism classes as
    phi(C) * copies(C)."""
    if k < 1:
        raise ValueError("k must be positive")
    cat = build_catalog(k)
    kfact = factorial(k)
    out = [0] * (pair_count(k) + 1)
    for edges, aut, val in zip(cat.edges, cat.auts, class_values(phi, k)):
        if val:
            out[edges.bit_count()] += kfact // aut
    return tuple(out)


def h_vector(f: tuple[int, ...]) -> tuple[int, ...]:
    """Alternating binomial transform: h_l = sum_i (-1)^(l-i) C(d-i, l-i) f_i."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (ell - i) * comb(d - i, ell - i) * f[i]
            for i in range(ell + 1))
        for ell in range(d + 1))


def hamming_weight(f: tuple[int, ...]) -> int:
    return sum(1 for x in f if x != 0)


def max_nonzero_index(vec: tuple[int, ...]) -> int:
    """Largest index with a nonzero entry, or -1 for the zero vector."""
    for i in range(len(vec) - 1, -1, -1):
        if vec[i]:
            return i
    return -1


class FPolynomial(NamedTuple):
    """sum_i f_i x^(d-i), stored as coefficients[j] = coefficient of x^j."""

    coefficients: tuple[int, ...]

    @classmethod
    def from_f_vector(cls, f: tuple[int, ...]) -> "FPolynomial":
        d = len(f) - 1
        return cls(tuple(f[d - j] for j in range(d + 1)))

    def derivative_at(self, j: int, x: int | Fraction) -> int | Fraction:
        """Exact j-th derivative at x, sum_t c_t (t)_j x^(t-j), with the
        falling factorial (t)_j = (t-1)_j t/(t-j) and the power of x kept
        from term to term: int arithmetic for an int x, Fraction for a
        Fraction."""
        if j < 0:
            raise ValueError("derivative order must be >= 0")
        ff, power, acc = factorial(j), x ** 0, 0
        for t in range(j, len(self.coefficients)):
            if t > j:
                ff, power = ff * t // (t - j), power * x
            acc += self.coefficients[t] * ff * power
        return acc


# ------------------------------------------------ Birkhoff interpolation

class _BirkhoffMatrix(NamedTuple):
    rows: tuple[tuple[int, ...], tuple[int, ...]]


class BirkhoffMatrix(_BirkhoffMatrix):
    """Two-row 0/1 incidence matrix over derivative orders 0..d; row 0 is
    the node x=-1, row 1 the node x=0.  Entry (i,j)=1 prescribes the j-th
    derivative at node i."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], tuple[int, ...]]
                ) -> "BirkhoffMatrix":
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            raise ValueError("need two rows of equal length")
        for row in rows:
            if any(e not in (0, 1) for e in row):
                raise ValueError("entries must be 0 or 1")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def _make(cls, iterable) -> "BirkhoffMatrix":
        # namedtuple's _make, which _replace calls, builds through
        # tuple.__new__; this one runs the checks of __new__.
        return cls(*iterable)

    @property
    def order(self) -> int:
        """d: derivative columns run 0..d."""
        return len(self.rows[0]) - 1

    @property
    def ones(self) -> int:
        return sum(self.rows[0]) + sum(self.rows[1])

    def column_counts(self) -> tuple[int, ...]:
        """M_j = number of ones in columns 0..j (prefix sums)."""
        d = self.order
        out = []
        acc = 0
        for j in range(d + 1):
            acc += self.rows[0][j] + self.rows[1][j]
            out.append(acc)
        return tuple(out)


def polya_poised(matrix: BirkhoffMatrix) -> bool:
    """Poisedness test for two-node Birkhoff interpolation: with exactly
    d+1 conditions, the scheme is poised iff every prefix of columns
    0..j carries at least j+1 conditions for j < d."""
    d = matrix.order
    if matrix.ones != d + 1:
        raise ValueError(
            f"matrix prescribes {matrix.ones} conditions, need {d + 1}")
    counts = matrix.column_counts()
    return all(counts[j] >= j + 1 for j in range(d))


def derivative_vanishing_matrix(f: tuple[int, ...]) -> BirkhoffMatrix:
    """Incidence matrix of the conditions the spectrum imposes on its own
    f-polynomial: row 0 (node -1) marks derivative orders 0..hw(f)-1, row 1
    (node 0) marks every order j with f_{d-j} = 0.  Total conditions:
    hw(f) + (d + 1 - hw(f)) = d + 1."""
    d = len(f) - 1
    w = hamming_weight(f)
    row0 = tuple(1 if j < w else 0 for j in range(d + 1))
    row1 = tuple(1 if f[d - j] == 0 else 0 for j in range(d + 1))
    m = BirkhoffMatrix((row0, row1))
    if m.ones != d + 1:
        raise InternalConsistencyError(
            "derivative-vanishing matrix has wrong condition count")
    return m


# ------------------------------------------------------- bundled report

class Spectrum(NamedTuple):
    property_name: str
    k: int
    d: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    hamming_weight: int
    beta: int                     # d - hw(f); number of vanishing f entries
    max_nonzero_h_index: int
    poised: bool


def spectrum_report(phi: PropertySpec, k: int) -> Spectrum:
    """The size-k spectrum of phi.  Every report rechecks the identities
    that tie f and h to the f-polynomial P, P^(j)(0) = j! f_(d-j) and
    P^(j)(-1) = j! h_(d-j) for j = 0..d, in exact integer arithmetic at
    the integer points 0 and -1."""
    f = f_vector(phi, k)
    h = h_vector(f)
    d = len(f) - 1
    w = hamming_weight(f)
    beta = d - w
    poly = FPolynomial.from_f_vector(f)
    for j in range(d + 1):
        if poly.derivative_at(j, 0) != f[d - j] * factorial(j):
            raise InternalConsistencyError(
                f"derivative identity at 0 fails for j={j}")
        if poly.derivative_at(j, -1) != factorial(j) * h[d - j]:
            raise InternalConsistencyError(
                f"derivative identity at -1 fails for j={j}")
    mh = max_nonzero_index(h)
    if w > 0 and mh < beta + 1:
        # a polynomial with w nonzero terms vanishes at -1 to order at most
        # w - 1, so some h_l with l >= beta + 1 must survive
        raise InternalConsistencyError(
            f"h-vector support too low: max index {mh} < beta+1 = {beta + 1}")
    poised = polya_poised(derivative_vanishing_matrix(f))
    return Spectrum(phi.name, k, d, f, h, w, beta, mh, poised)
