"""Tests for the hardness-diagnosis pipeline: clique minors, edge-density
thresholds, satisfiable-size prefixes, and the per-property report."""

import importlib.util
import json
import random
from fractions import Fraction
from math import ceil, comb
from pathlib import Path

import pytest

from indsub import cli
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
from indsub.spectrum import f_vector, h_vector, spectrum_report

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
    phi = get_property("triangle-free")
    chk = turan_check(phi, spectrum_report(phi, 5))
    assert chk.r == 3
    assert chk.threshold == Fraction(25, 3)
    assert chk.ok
    assert chk.violating_indices == ()
    # Nonvacuous: indices 9 and 10 lie above the threshold and are checked.
    assert [i for i in range(11) if i > chk.threshold] == [9, 10]


def test_turan_check_planar():
    phi = get_property("planar")
    for k in (5, 6):
        chk = turan_check(phi, spectrum_report(phi, k))
        assert chk.r == 5
        assert chk.threshold == Fraction(4 * k * k, 10)
        assert chk.ok


def test_turan_check_requires_declared_forbidden_subgraph():
    with pytest.raises(ValueError):
        phi = get_property("connected")
        turan_check(phi, spectrum_report(phi, 4))


def test_turan_check_catches_false_declaration():
    liar = PropertySpec("liar", lambda g: True, monotone=True,
                        forbidden_subgraphs=(SmallGraph.complete(3),))
    chk = turan_check(liar, spectrum_report(liar, 4))
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
    assert not report.flag_violations
    assert len(report.records) == k_max
    for k, rec in enumerate(report.records, 1):
        spec = rec.spectrum
        d = comb(k, 2)
        assert (spec.k, spec.d) == (k, d)
        assert spec.f == f_vector(phi, k)
        assert spec.h == h_vector(spec.f)
        assert spec.hamming_weight == sum(1 for x in spec.f if x)
        assert spec.beta == d - spec.hamming_weight
        if spec.hamming_weight == 0:
            assert rec.witness is None
            continue
        hv = hom_vector(phi, k)
        assert rec.support_size == hv.support_size
        witness = SmallGraph.from_graph6(rec.witness)
        assert witness.n == k
        assert rec.witness_edges == witness.edge_count
        assert rec.witness_edges >= d - spec.hamming_weight + 1
        assert rec.witness_treewidth == exact_treewidth(witness)
        assert rec.witness_treewidth >= ceil(Fraction(rec.witness_edges, k))
        assert rec.witness_clique_minor == largest_clique_minor(witness)
        if spec.beta > 0:
            assert rec.avg_degree_bound == Fraction(spec.beta, k)
            assert rec.witness_treewidth >= rec.avg_degree_bound
        else:
            assert rec.avg_degree_bound is None


@pytest.mark.parametrize("name", sorted(BUILTIN_PROPERTIES))
def test_diagnose_records_carry_their_spectrum(name):
    phi = get_property(name)
    report = diagnose(phi, 5)
    assert [rec.spectrum for rec in report.records] == \
        [spectrum_report(phi, k) for k in range(1, 6)]


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
    assert verify_flags(liar, 4)
    report = diagnose(liar, 4)
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
    assert report.flag_violations
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

    diagnose(base._replace(predicate=counted), 6)
    classes = sum(build_catalog(k).class_count for k in range(1, 7))
    assert classes == 208
    assert len(calls) <= classes + deletion_flag


def test_diagnose_zoo_script(capsys, monkeypatch):
    """The script prints what `indsub diagnose` prints for each property
    in turn, as JSON or as text, and refuses bad input before any
    diagnosis runs."""
    script = Path(__file__).parent.parent / "scripts" / "diagnose_zoo.py"
    spec = importlib.util.spec_from_file_location("diagnose_zoo", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    outputs = []
    for argv, names, fmt in ((["--kmax", "3"], sorted(BUILTIN_PROPERTIES), []),
                             (["--kmax", "2", "--properties", "split,true",
                               "--text"], ["split", "true"], ["--text"])):
        assert module.main(argv) == 0
        outputs.append(capsys.readouterr().out)
        for name in names:
            assert cli.main(["diagnose", "--property", name, "--kmax",
                             argv[1]] + fmt) == 0
        assert outputs[-1] == capsys.readouterr().out
    text, decoder, at, reports = outputs[0].strip(), json.JSONDecoder(), 0, []
    while at < len(text):
        report, at = decoder.raw_decode(text, at)
        reports.append(report)
        at = len(text) - len(text[at:].lstrip())
    assert [r["property"] for r in reports] == sorted(BUILTIN_PROPERTIES)
    assert all(len(r["records"]) == 3 for r in reports)

    def refuse(*args):
        raise AssertionError("diagnosis ran on bad input")

    monkeypatch.setattr(cli, "diagnose", refuse)
    assert module.main(["--kmax", "9"]) == 1
    assert "usage error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        module.main(["--properties", "connected,nope"])
    assert exc.value.code != 0
    assert "error:" in capsys.readouterr().err
