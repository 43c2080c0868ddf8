"""Hardness diagnosis for a property: finite-scale evidence reports.

The report machinery ties together the spectrum (f/h vectors), the
coefficient vector, and structural measures of the densest surviving
pattern (exact treewidth, largest clique minor).  Classification text is
evidence-qualified: asymptotic lower bounds depend on the behaviour of
beta(k) = C(k,2) - hw(f) for all k, which a finite tool cannot observe,
so reports state what was verified and which conditional statement the
evidence is consistent with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional

from .errors import InternalConsistencyError
from .graphs import SmallGraph, bits_of, reach
from .hombasis import MAX_HOM_VECTOR_K, hom_vector, witness_dense_graph
from .homcount import exact_treewidth
from .properties import MAX_FLAG_K, FlagViolation, PropertySpec, verify_flags
from .spectrum import Spectrum, f_vector, spectrum_report

MAX_MINOR_N = 8
MAX_DIAGNOSE_K = MAX_HOM_VECTOR_K


def largest_clique_minor(g: SmallGraph) -> int:
    """Largest t such that g has a K_t minor, by exhaustive enumeration of
    partial partitions into connected, pairwise-adjacent branch sets."""
    n = g.n
    if n == 0:
        return 0
    if n > MAX_MINOR_N:
        raise ValueError(f"clique-minor search handles at most {MAX_MINOR_N} vertices")
    rows = g.adj_rows()

    def pairwise_ok(blocks: list[int]) -> bool:
        for i in range(len(blocks)):
            nb = 0
            for u in bits_of(blocks[i]):
                nb |= rows[u]
            for j in range(i + 1, len(blocks)):
                if not nb & blocks[j]:
                    return False
        return True

    best = 0

    def rec(v: int, blocks: list[int]):
        nonlocal best
        if v == n:
            if len(blocks) > best and pairwise_ok(blocks) and \
                    all(reach(rows, b & -b, b) == b for b in blocks):
                best = len(blocks)
            return
        # even if every remaining vertex opened its own branch set the
        # current assignment could not beat the best model found so far
        if len(blocks) + (n - v) <= best:
            return
        bit = 1 << v
        for i, b in enumerate(blocks):
            blocks[i] = b | bit
            rec(v + 1, blocks)
            blocks[i] = b
        blocks.append(bit)
        rec(v + 1, blocks)
        blocks.pop()
        rec(v + 1, blocks)      # leave v out of the model

    rec(0, [])
    return best


@dataclass(frozen=True)
class TuranCheck:
    r: int
    threshold: Fraction           # (1 - 1/r) * k^2 / 2
    ok: bool
    violating_indices: tuple[int, ...]


def turan_check(phi: PropertySpec, k: int) -> TuranCheck:
    """For a monotone property with a declared forbidden subgraph on r
    vertices, every satisfying k-vertex graph has at most (1-1/r)k^2/2
    edges, so the f-vector must vanish above that threshold."""
    if not phi.forbidden_subgraphs:
        raise ValueError("turan_check needs a declared forbidden subgraph")
    r = min(h.n for h in phi.forbidden_subgraphs)
    # every graph contains the 0-vertex graph: forbidding it leaves no
    # satisfying graph, so the f-vector vanishes above any threshold
    threshold = Fraction((r - 1) * k * k, 2 * r) if r else Fraction(0)
    f = f_vector(phi, k)
    bad = tuple(i for i in range(len(f)) if i > threshold and f[i] != 0)
    return TuranCheck(r, threshold, not bad, bad)


@dataclass(frozen=True)
class HardnessRecord:
    k: int
    d: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    hamming_weight: int
    beta: int
    max_nonzero_h_index: int
    poised: bool
    support_size: Optional[int]
    witness: Optional[str]                 # graph6 of the densest pattern
    witness_edges: Optional[int]
    witness_treewidth: Optional[int]
    witness_clique_minor: Optional[int]
    avg_degree_bound: Optional[Fraction]   # beta/k when beta > 0
    turan: Optional[TuranCheck]


@dataclass(frozen=True)
class HardnessReport:
    property_name: str
    k_max: int
    flags_declared: tuple[str, ...]
    flags_verified_to: int
    flag_violations: tuple[FlagViolation, ...]
    records: tuple[HardnessRecord, ...]
    support_prefix: tuple[int, ...]
    max_consecutive_ratio: Optional[Fraction]
    classification: tuple[str, ...]

    @property
    def flags_ok(self) -> bool:
        return not self.flag_violations


def _record_for_k(phi: PropertySpec, k: int, spec: Spectrum, *,
                  monotone_ok: bool) -> HardnessRecord:
    d = spec.d
    turan = None
    if monotone_ok and phi.forbidden_subgraphs:
        turan = turan_check(phi, k)
    if spec.hamming_weight == 0:
        return HardnessRecord(k, d, spec.f, spec.h, 0, spec.beta,
                              spec.max_nonzero_h_index, spec.poised,
                              None, None, None, None, None, None, turan)
    hv = hom_vector(phi, k)
    witness = witness_dense_graph(hv)
    if witness is None:
        raise InternalConsistencyError(
            f"nonzero f-vector but empty k-vertex support at k={k}")
    m = witness.edge_count
    if m < d - spec.hamming_weight + 1:
        raise InternalConsistencyError(
            f"witness has {m} edges, below the guaranteed "
            f"{d - spec.hamming_weight + 1} at k={k}")
    tw = exact_treewidth(witness)
    if tw < ceil(Fraction(m, k)):
        raise InternalConsistencyError(
            f"witness treewidth {tw} below average-degree bound at k={k}")
    bound = None
    if spec.beta > 0:
        bound = Fraction(spec.beta, k)
        if tw < bound:
            raise InternalConsistencyError(
                f"witness treewidth {tw} below beta/k = {bound} at k={k}")
    minor = largest_clique_minor(witness) if witness.n <= MAX_MINOR_N else None
    return HardnessRecord(k, d, spec.f, spec.h, spec.hamming_weight,
                          spec.beta, spec.max_nonzero_h_index, spec.poised,
                          hv.support_size, witness.to_graph6(), m, tw, minor,
                          bound, turan)


def _classification_lines(phi: PropertySpec, records, prefix, ratio,
                          flags_ok: bool, verified_to: int) -> tuple[str, ...]:
    lines = []
    if phi.flags:
        state = ("verified exhaustively on all graphs with at most "
                 f"{verified_to} vertices" if flags_ok
                 else "DECLARED BUT REFUTED by flag verification")
        lines.append(f"declared flags ({', '.join(phi.flags)}): {state}.")
    else:
        lines.append("no structural flags declared; only the generic "
                     "f-vector route applies.")
    if not prefix:
        lines.append("no examined size admits a satisfying graph; every "
                     "count in this range is 0 and no hardness evidence "
                     "arises.")
        return tuple(lines)
    lines.append(f"support sizes within range: {list(prefix)}; largest "
                 f"consecutive ratio {ratio} (small ratios over a long "
                 "prefix are evidence of a dense support set).")
    betas = {r.k: r.beta for r in records if r.hamming_weight > 0}
    if all(b <= 0 for b in betas.values()):
        lines.append("meta-theorem inapplicable (β ≤ 0): the f-vector has "
                     "full support at every examined size, so no vanishing "
                     "spectrum entries can force dense patterns.")
        return tuple(lines)
    ratios = {k: f"{Fraction(b, k)}" for k, b in betas.items() if b > 0}
    lines.append("generic route: β(k) = C(k,2) − hw(f) gives a pattern "
                 f"with ≥ β(k)+1 edges and treewidth ≥ β(k)/k; observed "
                 f"β(k)/k: {ratios}. If β(k) ∈ ω(k) holds asymptotically, "
                 "the count is #W[1]-complete and has no "
                 "g(k)·n^{o((β(k)/k)/log(β(k)/k))} algorithm unless ETH "
                 "fails.")
    if flags_ok and phi.monotone:
        r = min((h.n for h in phi.forbidden_subgraphs), default=None) \
            if phi.forbidden_subgraphs else None
        detail = (f"every satisfying k-vertex graph has ≤ (1−1/{r})k²/2 "
                  "edges (checked via the clique threshold), so "
                  "β(k) ∈ Θ(k²); " if r else "")
        lines.append("monotone route: " + detail + "for a monotone property "
                     "that is satisfiable at infinitely many sizes, the "
                     "count is #W[1]-complete with no g(k)·n^{o(k/log k)} "
                     "algorithm, refinable to n^{o(k/√log k)} through "
                     "clique minors, unless ETH fails; the support set is "
                     "then all positive integers (consistent with the "
                     "observed full prefix).")
    if flags_ok and phi.edge_count_only:
        lines.append("edge-count-only route: a property depending only on "
                     "the edge count that is non-trivial at infinitely many "
                     "sizes yields #W[1]-completeness with no "
                     "g(k)·n^{o(k/log k)} algorithm, and no "
                     "g(k)·n^{o(k/√log k)} one when the support set is "
                     "dense, unless ETH fails.")
    if flags_ok and phi.sparse_bound is not None:
        lines.append(f"sparse route (s = {phi.sparse_bound}): a sparse "
                     "property with a dense support set admits the tight "
                     "bound — no g(k)·n^{o(k)} algorithm unless ETH fails.")
    if flags_ok and phi.hereditary:
        lines.append("hereditary property: the critical-edge analysis "
                     "(critical/reduce-demo subcommands) gives the tight "
                     "o(k)-exponent route through bipartite independent-set "
                     "counting when a critical edge is certified.")
    return tuple(lines)


def diagnose(phi: PropertySpec, k_max: int) -> HardnessReport:
    if not 1 <= k_max <= MAX_DIAGNOSE_K:
        raise ValueError(f"diagnose supports 1 <= k_max <= {MAX_DIAGNOSE_K}")
    verified_to = min(k_max, MAX_FLAG_K)
    flag_report = verify_flags(phi, verified_to)
    flags_ok = flag_report.ok
    records = []
    for k in range(1, k_max + 1):
        spec = spectrum_report(phi, k)
        records.append(_record_for_k(phi, k, spec,
                                     monotone_ok=flags_ok and phi.monotone))
    prefix = tuple(r.k for r in records if r.hamming_weight > 0)
    ratio = None
    if prefix:
        anchors = (1,) + prefix
        ratio = max(Fraction(b, a) for a, b in zip(anchors, anchors[1:]))
    lines = _classification_lines(phi, records, prefix, ratio, flags_ok,
                                  verified_to)
    return HardnessReport(phi.name, k_max, phi.flags, verified_to,
                          flag_report.violations, tuple(records), prefix,
                          ratio, lines)
