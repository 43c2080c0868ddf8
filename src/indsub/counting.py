"""Induced-subgraph counting: direct enumeration and basis evaluation.

count_brute enumerates the C(n,k) vertex subsets and applies the
predicate; count_basis evaluates the homomorphism-basis vector against
exact per-pattern homomorphism counts.  The two must agree on every
input.  count_basis hands k = 0 and k > n to count_brute (at most one
predicate call) and otherwise insists on an integral, nonnegative total
before returning.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import BudgetExceededError, InternalConsistencyError
from .graphs import HostGraph
from .hombasis import hom_vector
from .homcount import count_hom
from .properties import PropertySpec, evaluate

DEFAULT_SUBSET_BUDGET = 10 ** 8


def count_brute(phi: PropertySpec, k: int, host: HostGraph, *,
                budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """#IndSub(phi, k, host) by enumerating every k-subset of the host."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = host.n
    if k > n:
        return 0
    work = comb(n, k)
    if work > budget:
        raise BudgetExceededError(
            f"C({n},{k}) = {work} subsets exceeds budget {budget}")
    total = 0
    for subset in combinations(range(n), k):
        if evaluate(phi, host.induced_small(subset)):
            total += 1
    return total


def count_basis(phi: PropertySpec, k: int, host: HostGraph, *,
                hom_cache: dict | None = None) -> int:
    """#IndSub(phi, k, host) as sum_H a(H) * #Hom(H, host).

    hom_cache, when given, must be dedicated to this host; it maps each
    pattern, the canonical representative its hom_vector entry carries, to
    its homomorphism count and lets repeated calls against one host share
    the expensive part.
    """
    if k <= 0 or k > host.n:
        return count_brute(phi, k, host)
    total = Fraction(0)
    for g, coef in hom_vector(phi, k).entries:
        if hom_cache is None:
            homs = count_hom(g, host)
        else:
            homs = hom_cache.get(g)
            if homs is None:
                homs = count_hom(g, host)
                hom_cache[g] = homs
        total += coef * homs
    if total.denominator != 1 or total < 0:
        raise InternalConsistencyError(
            f"basis evaluation produced {total}, not a count")
    return int(total)

