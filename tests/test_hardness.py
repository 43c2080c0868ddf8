"""Tests for the hardness-diagnosis pipeline: clique minors, edge-density
thresholds, satisfiable-size prefixes, and the per-property report."""

import importlib.util
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import ceil, comb
from pathlib import Path

import pytest

from indsub.catalog import build_catalog
from indsub.graphs import SmallGraph
from indsub.hardness import (
    MAX_DIAGNOSE_K,
    MAX_MINOR_N,
    diagnose,
    largest_clique_minor,
    turan_check,
)
from indsub.hombasis import hom_vector
from indsub.homcount import exact_treewidth
from indsub.properties import (
    BUILTIN_PROPERTIES,
    PropertySpec,
    get_property,
    verify_flags,
)
from indsub.spectrum import f_vector, h_vector

from oracles import (
    brute_largest_clique_minor,
    brute_planar,
    random_small_graph,
)


K33 = SmallGraph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])


def test_largest_clique_minor_known_values():
    assert largest_clique_minor(SmallGraph(0, 0)) == 0
    assert largest_clique_minor(SmallGraph(3, 0)) == 1
    assert largest_clique_minor(SmallGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == 2
    assert largest_clique_minor(SmallGraph.cycle(5)) == 3
    assert largest_clique_minor(SmallGraph.complete(5)) == 5
    assert largest_clique_minor(K33) == 4
    grid23 = SmallGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5),
                                       (0, 3), (1, 4), (2, 5)])
    assert largest_clique_minor(grid23) == 3


def test_largest_clique_minor_cap():
    with pytest.raises(ValueError):
        largest_clique_minor(SmallGraph(MAX_MINOR_N + 1, 0))


def test_largest_clique_minor_matches_contraction_oracle():
    rng = random.Random(0xC11E)
    for _ in range(40):
        g = random_small_graph(rng, rng.randint(1, 6))
        assert largest_clique_minor(g) == brute_largest_clique_minor(g)


def test_largest_clique_minor_structural_bounds():
    rng = random.Random(0xC12E)
    for _ in range(30):
        g = random_small_graph(rng, rng.randint(1, 6))
        t = largest_clique_minor(g)
        assert t <= exact_treewidth(g) + 1
        if brute_planar(g):
            assert t <= 4


def test_turan_check_triangle_free():
    chk = turan_check(get_property("triangle-free"), 5)
    assert chk.r == 3
    assert chk.threshold == Fraction(25, 3)
    assert chk.ok
    assert chk.violating_indices == ()
    # Nonvacuous: indices 9 and 10 lie above the threshold and are checked.
    assert [i for i in range(11) if i > chk.threshold] == [9, 10]


def test_turan_check_planar():
    for k in (5, 6):
        chk = turan_check(get_property("planar"), k)
        assert chk.r == 5
        assert chk.threshold == Fraction(4 * k * k, 10)
        assert chk.ok


def test_turan_check_requires_declared_forbidden_subgraph():
    with pytest.raises(ValueError):
        turan_check(get_property("connected"), 4)


def test_turan_check_catches_false_declaration():
    liar = PropertySpec("liar", lambda g: True, monotone=True,
                        forbidden_subgraphs=(SmallGraph.complete(3),))
    chk = turan_check(liar, 4)
    assert chk.r == 3
    assert chk.threshold == Fraction(16, 3)
    assert not chk.ok
    assert chk.violating_indices == (6,)


def test_density_prefix_full_and_empty():
    report = diagnose(get_property("connected"), 5)
    assert report.support_prefix == (1, 2, 3, 4, 5)
    # the jump from the anchor 1 to the first member
    assert report.max_consecutive_ratio == 2
    report = diagnose(get_property("false"), 5)
    assert report.support_prefix == ()
    assert report.max_consecutive_ratio is None


def test_density_prefix_gaps_raise_ratio():
    evens = PropertySpec("even-order", lambda g: g.n % 2 == 0)
    report = diagnose(evens, 6)
    assert report.support_prefix == (2, 4, 6)
    assert report.max_consecutive_ratio == 2
    sparse = PropertySpec("order-5-only", lambda g: g.n == 5)
    report = diagnose(sparse, 6)
    assert report.support_prefix == (5,)
    assert report.max_consecutive_ratio == 5


def test_diagnose_k_range():
    phi = get_property("connected")
    with pytest.raises(ValueError):
        diagnose(phi, 0)
    with pytest.raises(ValueError):
        diagnose(phi, MAX_DIAGNOSE_K + 1)


@pytest.mark.parametrize("prop_name", ["connected", "bipartite",
                                       "edge-count-even", "split"])
def test_diagnose_record_invariants(prop_name):
    phi = get_property(prop_name)
    k_max = 4
    report = diagnose(phi, k_max)
    assert report.property_name == prop_name
    assert report.k_max == k_max
    assert report.flags_declared == phi.flags
    assert report.flags_verified_to == 4
    assert report.flags_ok
    assert len(report.records) == k_max
    for rec in report.records:
        d = comb(rec.k, 2)
        assert rec.d == d
        assert rec.f == f_vector(phi, rec.k)
        assert rec.h == h_vector(rec.f)
        assert rec.hamming_weight == sum(1 for x in rec.f if x)
        assert rec.beta == d - rec.hamming_weight
        if rec.hamming_weight == 0:
            assert rec.witness is None
            continue
        hv = hom_vector(phi, rec.k)
        assert rec.support_size == hv.support_size
        witness = SmallGraph.from_graph6(rec.witness)
        assert witness.n == rec.k
        assert rec.witness_edges == witness.edge_count
        assert rec.witness_edges >= d - rec.hamming_weight + 1
        assert rec.witness_treewidth == exact_treewidth(witness)
        assert rec.witness_treewidth >= ceil(Fraction(rec.witness_edges, rec.k))
        assert rec.witness_clique_minor == largest_clique_minor(witness)
        if rec.beta > 0:
            assert rec.avg_degree_bound == Fraction(rec.beta, rec.k)
            assert rec.witness_treewidth >= rec.avg_degree_bound
        else:
            assert rec.avg_degree_bound is None


def test_diagnose_turan_only_for_monotone_with_forbidden():
    report = diagnose(get_property("triangle-free"), 4)
    assert all(rec.turan is not None and rec.turan.ok
               for rec in report.records)
    report = diagnose(get_property("connected"), 4)
    assert all(rec.turan is None for rec in report.records)
    # chordal is hereditary but not monotone: no clique threshold applies.
    report = diagnose(get_property("chordal"), 4)
    assert all(rec.turan is None for rec in report.records)


def classification_text(report) -> str:
    return "\n".join(report.classification)


def test_classification_full_support_is_inapplicable():
    text = classification_text(diagnose(get_property("true"), 4))
    assert "meta-theorem inapplicable (β ≤ 0)" in text


def test_classification_empty_support():
    text = classification_text(diagnose(get_property("false"), 4))
    assert "no examined size admits a satisfying graph" in text


def test_classification_routes_per_flag():
    text = classification_text(diagnose(get_property("triangle-free"), 4))
    assert "generic route" in text
    assert "monotone route" in text
    text = classification_text(diagnose(get_property("edge-count-even"), 4))
    assert "edge-count-only route" in text
    text = classification_text(diagnose(get_property("no-edges"), 4))
    assert "sparse route (s = 0)" in text
    text = classification_text(diagnose(get_property("bipartite"), 4))
    assert "hereditary property" in text
    # chordal admits graphs at every edge count for k <= 4, so β ≤ 0 and
    # the report stops at the inapplicability line.
    text = classification_text(diagnose(get_property("chordal"), 4))
    assert "meta-theorem inapplicable (β ≤ 0)" in text
    assert "hereditary property" not in text
    text = classification_text(diagnose(get_property("connected"), 4))
    assert "monotone route" not in text
    assert "no structural flags declared" in text


def test_diagnose_reports_flag_violations():
    # "connected" is not closed under vertex deletion, so a hereditary
    # declaration is refuted and the hereditary route is suppressed.
    liar = PropertySpec("liar-hereditary",
                        BUILTIN_PROPERTIES["connected"].predicate,
                        hereditary=True)
    assert not verify_flags(liar, 4).ok
    report = diagnose(liar, 4)
    assert not report.flags_ok
    assert report.flag_violations
    assert report.flag_violations[0].flag == "hereditary"
    text = classification_text(report)
    assert "DECLARED BUT REFUTED" in text
    assert "hereditary property:" not in text


def test_diagnose_suppresses_turan_when_flags_refuted():
    liar = PropertySpec("liar-monotone",
                        BUILTIN_PROPERTIES["connected"].predicate,
                        monotone=True,
                        forbidden_subgraphs=(SmallGraph.complete(3),))
    report = diagnose(liar, 4)
    assert not report.flags_ok
    assert all(rec.turan is None for rec in report.records)


@pytest.mark.parametrize("name, deletion_flag", [("connected", False),
                                                 ("triangle-free", True)])
def test_diagnose_evaluates_each_class_at_most_once(name, deletion_flag):
    # Only the 0-vertex graph, for the deletion checks of verify_flags,
    # lies outside the catalog.
    base = get_property(name)
    calls = []

    def counted(g):
        calls.append(g)
        return base.predicate(g)

    diagnose(replace(base, predicate=counted), 6)
    classes = sum(build_catalog(k).class_count for k in range(1, 7))
    assert classes == 208
    assert len(calls) <= classes + deletion_flag


def test_diagnose_zoo_script(capsys, monkeypatch):
    script = Path(__file__).parent.parent / "scripts" / "diagnose_zoo.py"
    spec = importlib.util.spec_from_file_location("diagnose_zoo", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--kmax", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["property"] for p in payload] == sorted(BUILTIN_PROPERTIES)
    assert all(len(p["records"]) == 3 for p in payload)

    def refuse(*args):
        raise AssertionError("diagnosis ran on bad input")

    monkeypatch.setattr(module, "diagnose", refuse)
    for argv in (["--kmax", "9"], ["--properties", "connected,nope"]):
        with pytest.raises(SystemExit) as exc:
            module.main(argv)
        assert exc.value.code != 0
        assert "error:" in capsys.readouterr().err
