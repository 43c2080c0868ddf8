"""Command-line front end.

Subcommands: catalog, spectrum, homvector, count, diagnose, critical,
reduce-demo, selftest.  Reports go to standard output as JSON (diagnose
also offers --text) in pieces of bounded size, so a value _enc rejects, an
internal error, can leave part of a report there; error messages go to
standard error.  Exit status is 0 on success, 1 on a usage error (bad
flags, unknown property, malformed input file, exceeded work budget), and
2 when an internal consistency check fails -- including a disagreement
between the two counting methods under ``count --method both``.

Integers in JSON output are rendered as decimal strings so that
arbitrary-precision counts survive any JSON consumer; rationals are
rendered as "numerator/denominator" strings (the homvector report splits
them into explicit fields).  All arrays are emitted in a deterministic
order.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import GeneratorType

from . import counting
from .canon import is_isomorphic
from .catalog import CLASS_MAPS, MAX_CATALOG_K, build_catalog
from .errors import (
    BudgetExceededError,
    FormatError,
    InternalConsistencyError,
    PredicateError,
    UnknownPropertyError,
)
from .graphs import SmallGraph, load_graph_list, load_host_graph
from .hardness import MAX_DIAGNOSE_K, diagnose
from .hereditary import (
    DEFAULT_CRITICAL_BOUND,
    bipartition_of,
    bounded_critical_check,
    count_independent_sets_via_reduction,
    singleton_critical_edge,
)
from .hombasis import MAX_HOM_VECTOR_K, hom_vector
from .homcount import count_hom
from .properties import (
    forbidden_induced_property,
    forbidden_subgraph_property,
    get_property,
    invert,
    load_truth_table,
    truth_table_property,
)
from .spectrum import spectrum_report


class UsageError(Exception):
    """Bad command line or bad input values; mapped to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 1
        raise UsageError(message)


# --------------------------------------------------------------- encoding

# json's escaper of one string (C where available), as json.dumps uses it
_escape = json.encoder.encode_basestring_ascii
PIECE_PARTS = 4096  # parts _emit gathers per write: about 70 KB of text


class _Pieces(list):
    """_emit's parts list, which _enc empties through write."""

    def __init__(self, write):
        super().__init__()
        self.write = write


def _enc(value, out: list[str], indent: str) -> None:
    """Append to out the text json.dumps(indent=2) writes for value, with
    ints as decimal strings, rationals as "p/q" strings and a generator as
    the array it yields.  Dict keys are strings; indent is the newline and
    spaces that start a line at value's depth.  A _Pieces out is written
    and emptied at an array-item boundary past PIECE_PARTS parts."""
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(f'"{value}"')
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            # The commonest values, written in one piece with their key.
            item_kind = type(item)
            if item_kind is str:
                out.append(f"{sep}{_escape(key)}: {_escape(item)}")
            elif item_kind is int:
                out.append(f'{sep}{_escape(key)}: "{item}"')
            else:
                out.append(f"{sep}{_escape(key)}: ")
                _enc(item, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple, GeneratorType)):
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _enc(item, out, inner)
            sep = "," + inner
            if len(out) > PIECE_PARTS and type(out) is _Pieces:
                out.write("".join(out))
                out.clear()
        out.append("[]" if sep[0] == "[" else indent + "]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, int):
        out.append('"' + str(value) + '"')
    elif isinstance(value, Fraction):
        out.append(f'"{value.numerator}/{value.denominator}"')
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report) -> None:
    out = _Pieces(sys.stdout.write)
    _enc(report, out, "\n")
    out.append("\n")
    out.write("".join(out))


# ------------------------------------------------------ property plumbing

def _add_property_options(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--property", metavar="NAME",
                       help="built-in property name")
    group.add_argument("--truth-table", metavar="FILE",
                       help="property given as a truth-table file")
    group.add_argument("--forbidden-induced", metavar="FILE",
                       help="property: none of the listed graphs occurs "
                            "as an induced subgraph")
    group.add_argument("--forbidden-subgraph", metavar="FILE",
                       help="property: none of the listed graphs occurs "
                            "as a subgraph")


def _resolve_property(args):
    if getattr(args, "property", None):
        return get_property(args.property)
    if getattr(args, "truth_table", None):
        return truth_table_property(load_truth_table(args.truth_table),
                                    name=f"truth-table:{args.truth_table}")
    if getattr(args, "forbidden_induced", None):
        graphs = load_graph_list(args.forbidden_induced)
        return forbidden_induced_property(
            graphs, name=f"forbidden-induced:{args.forbidden_induced}")
    if getattr(args, "forbidden_subgraph", None):
        graphs = load_graph_list(args.forbidden_subgraph)
        return forbidden_subgraph_property(
            graphs, name=f"forbidden-subgraph:{args.forbidden_subgraph}")
    raise UsageError("a property is required (--property, --truth-table, "
                     "--forbidden-induced or --forbidden-subgraph)")


# Properties with a single forbidden pattern whose criticality has a
# structural explanation: every explosion of the named edge visibly keeps
# the property.  Keyed by built-in property name; the edge is the first
# one in pair order (all edges of these patterns are equivalent).
KNOWN_CRITICAL_EDGES = {
    "perfect": (
        SmallGraph.cycle(5),
        "every explosion of a C5 edge is a tree plus clone leaves, "
        "hence bipartite, hence perfect",
    ),
    "chordal": (
        SmallGraph.cycle(4),
        "every explosion of a C4 edge is acyclic, hence chordal",
    ),
    "split": (
        SmallGraph.from_edges(4, [(0, 1), (2, 3)]),
        "every explosion of a 2K2 edge is an independent set plus one "
        "disjoint edge, hence split",
    ),
}


# ------------------------------------------------------------ subcommands

def _cmd_catalog(args) -> int:
    if not 1 <= args.k <= MAX_CATALOG_K:
        raise UsageError(f"--k must be between 1 and {MAX_CATALOG_K}")
    cat = build_catalog(args.k)
    by_edge_count = [0] * (args.k * (args.k - 1) // 2 + 1)
    for edges in cat.edges:
        by_edge_count[edges.bit_count()] += 1
    report = {
        "k": cat.k,
        "classes": cat.class_count,
        "labeled_total": cat.labeled_total,
        "classes_by_edge_count": by_edge_count,
    }
    if args.list:
        kfact = factorial(args.k)
        report["entries"] = (
            {"graph6": g6, "edges": edges.bit_count(), "aut": aut,
             "copies": kfact // aut}
            for g6, edges, aut in zip(cat.graph6, cat.edges, cat.auts))
    _emit(report)
    return 0


def _cmd_spectrum(args) -> int:
    phi = _resolve_property(args)
    spec = spectrum_report(phi, args.k)
    _emit({"property": spec.property_name, **_spectrum_fields(spec)})
    return 0


def _spectrum_fields(spec) -> dict:
    """The spectrum's fields, as both spectrum and diagnose write them."""
    return {
        "k": spec.k,
        "d": spec.d,
        "f": list(spec.f),
        "h": list(spec.h),
        "hw": spec.hamming_weight,
        "beta": spec.beta,
        "max_nonzero_h_index": spec.max_nonzero_h_index,
        "poised": spec.poised,
    }


def _cmd_homvector(args) -> int:
    phi = _resolve_property(args)
    if not 1 <= args.k <= MAX_HOM_VECTOR_K:
        raise UsageError(f"--k must be between 1 and {MAX_HOM_VECTOR_K}")
    hv = hom_vector(phi, args.k)
    _emit([
        {"graph6": g.to_graph6(),
         "numerator": coef.numerator,
         "denominator": coef.denominator}
        for g, coef in hv.entries
    ])
    return 0


def _cmd_count(args) -> int:
    phi = _resolve_property(args)
    host = load_host_graph(args.graph)
    if args.k < 0:
        raise UsageError("--k must be >= 0")
    report = {
        "property": phi.name,
        "k": args.k,
        "host_vertices": host.n,
        "host_edges": host.edge_count,
        "method": args.method,
    }
    if args.method in ("basis", "both"):
        report["basis"] = counting.count_basis(phi, args.k, host)
    if args.method in ("brute", "both"):
        report["brute"] = counting.count_brute(phi, args.k, host,
                                               budget=args.budget)
    if args.method == "both":
        report["equal"] = report["basis"] == report["brute"]
        _emit(report)
        if not report["equal"]:
            print("internal consistency failure: basis and brute-force "
                  f"counts disagree ({report['basis']} vs "
                  f"{report['brute']})", file=sys.stderr)
            return 2
    else:
        report["count"] = report.pop(args.method)
        _emit(report)
    return 0


def _record_report(rec) -> dict:
    report = {
        **_spectrum_fields(rec.spectrum),
        "support_size": rec.support_size,
        "witness": rec.witness,
        "witness_edges": rec.witness_edges,
        "witness_treewidth": rec.witness_treewidth,
        "witness_clique_minor": rec.witness_clique_minor,
        "avg_degree_bound": rec.avg_degree_bound,
        "turan": None,
    }
    if rec.turan is not None:
        report["turan"] = {
            "r": rec.turan.r,
            "threshold": rec.turan.threshold,
            "ok": rec.turan.ok,
            "violating_indices": list(rec.turan.violating_indices),
        }
    return report


def _cmd_diagnose(args) -> int:
    phi = _resolve_property(args)
    if not 1 <= args.kmax <= MAX_DIAGNOSE_K:
        raise UsageError(f"--kmax must be between 1 and {MAX_DIAGNOSE_K}")
    rep = diagnose(phi, args.kmax)
    if args.text:
        print(f"property: {rep.property_name}")
        flags = ",".join(rep.flags_declared) or "none"
        print(f"declared flags: {flags} "
              f"(verified on all graphs up to {rep.flags_verified_to} "
              f"vertices; {len(rep.flag_violations)} violation(s))")
        for violation in rep.flag_violations:
            print(f"  flag violation [{violation.flag}] "
                  f"witness={violation.witness}: {violation.detail}")
        for rec in rep.records:
            spec = rec.spectrum
            line = (f"k={spec.k} d={spec.d} hw={spec.hamming_weight} "
                    f"beta={spec.beta} max_h={spec.max_nonzero_h_index} "
                    f"poised={'yes' if spec.poised else 'no'}")
            if rec.support_size is not None:
                line += (f" support={rec.support_size}"
                         f" witness={rec.witness}"
                         f" witness_edges={rec.witness_edges}"
                         f" witness_tw={rec.witness_treewidth}"
                         f" witness_minor={rec.witness_clique_minor}")
            print(line)
        print("classification:")
        for line in rep.classification:
            print(f"  {line}")
    else:
        _emit({
            "property": rep.property_name,
            "k_max": rep.k_max,
            "flags_declared": list(rep.flags_declared),
            "flags_verified_to": rep.flags_verified_to,
            "flag_violations": [v._asdict() for v in rep.flag_violations],
            "records": [_record_report(rec) for rec in rep.records],
            "support_prefix": list(rep.support_prefix),
            "max_consecutive_ratio": rep.max_consecutive_ratio,
            "classification": list(rep.classification),
        })
    return 0


def _critical_property(args, forbidden):
    """The property a critical-edge command works with: --property, or the
    forbidden-induced property of the --forbidden graphs.  Also whether it
    is the pure single-graph property, the one case in which the twin-class
    argument proves an edge critical."""
    if args.property:
        return get_property(args.property), False
    phi = forbidden_induced_property(
        forbidden, name=f"forbidden-induced:{args.forbidden}")
    return phi, len(forbidden) == 1


def _known_edge(args, h):
    """The first edge of h when h is the pattern of --property's known
    critical edge, else None."""
    known = KNOWN_CRITICAL_EDGES.get(args.property)
    if known is not None and is_isomorphic(known[0], h):
        return next(iter(h.edge_pairs()))
    return None


def _grid_check(check) -> dict:
    """A bounded critical-edge check as the critical report writes it."""
    return {
        "status": check.status,
        "bound": check.bound,
        "witness": list(check.witness) if check.witness else None,
        "explosions_checked": check.checked,
    }


def _cmd_critical(args) -> int:
    forbidden = load_graph_list(args.forbidden)
    phi, single = _critical_property(args, forbidden)
    reports = []
    for h in forbidden:
        if h.n < 2:
            raise UsageError("forbidden graphs need at least two vertices")
        cert = singleton_critical_edge(h)
        # The twin-class argument proves criticality only for the pure
        # "this one graph is forbidden" property (or its inverse); with a
        # wider forbidden family it merely nominates a candidate edge.
        confidence = cert.confidence if single else "candidate"
        phi_for_cert = invert(phi) if cert.in_complement else phi
        check = bounded_critical_check(phi_for_cert, cert.graph, cert.edge,
                                       bound=args.bound)
        if single and check.refuted:
            raise InternalConsistencyError(
                "a proven singleton-twin edge was refuted by the grid "
                f"check (witness {check.witness}); the twin-partition "
                "argument rules this out")
        entry = {
            "graph6": h.to_graph6(),
            "certificate": {
                "graph6": cert.graph.to_graph6(),
                "edge": list(cert.edge),
                "in_complement": cert.in_complement,
                "confidence": confidence,
                "note": cert.note,
            },
            "grid_check": _grid_check(check),
        }
        edge = _known_edge(args, h)
        if edge is not None:
            kcheck = bounded_critical_check(phi, h, edge, bound=args.bound)
            if kcheck.refuted:
                raise InternalConsistencyError(
                    f"the known critical edge for {args.property} was "
                    f"refuted by the grid check (witness {kcheck.witness})")
            entry["known_edge"] = {
                "edge": list(edge),
                "confidence": "known",
                "note": KNOWN_CRITICAL_EDGES[args.property][1],
                "grid_check": _grid_check(kcheck),
            }
        reports.append(entry)
    _emit({
        "property": phi.name,
        "bound": args.bound,
        "graphs": reports,
    })
    return 0


def _cmd_reduce_demo(args) -> int:
    host = load_host_graph(args.bipartite)
    forbidden = load_graph_list(args.forbidden)
    h = forbidden[0]
    if h.n < 2:
        raise UsageError("the forbidden graph needs at least two vertices")
    parts = bipartition_of(host)
    if parts is None:
        raise UsageError("the host graph is not bipartite")
    if not parts[0] or not parts[1]:
        raise UsageError("the host must have vertices on both sides; "
                         "add at least one edge")
    phi, single = _critical_property(args, forbidden)
    edge = _known_edge(args, h)
    if edge is not None:
        phi_use, h_use, basis = phi, h, "known"
    else:
        cert = singleton_critical_edge(h)
        phi_use = invert(phi) if cert.in_complement else phi
        h_use, edge = cert.graph, cert.edge
        basis = cert.confidence if single else "candidate"
    check = bounded_critical_check(phi_use, h_use, edge, bound=args.bound)
    if check.refuted:
        raise UsageError(
            f"the chosen edge {edge} of {h_use.to_graph6()} is not "
            f"critical (explosion witness {check.witness}); the reduction "
            "identity would not hold")
    via = count_independent_sets_via_reduction(
        host, parts, args.k, phi_use, h_use, edge,
        method=args.method, budget=args.budget)
    direct = counting.count_brute(get_property("no-edges"), args.k, host,
                                  budget=args.budget)
    report = {
        "host_vertices": host.n,
        "host_edges": host.edge_count,
        "sides": [len(parts[0]), len(parts[1])],
        "k": args.k,
        "property": phi_use.name,
        "pattern": h_use.to_graph6(),
        "edge": list(edge),
        "edge_basis": basis,
        "distinguished_vertices": h_use.n - 2,
        "counting_calls": 1 << (h_use.n - 2),
        "independent_sets_via_reduction": via,
        "independent_sets_direct": direct,
        "equal": via == direct,
    }
    _emit(report)
    if via != direct:
        print("internal consistency failure: the reduction count "
              f"({via}) disagrees with the direct independent-set count "
              f"({direct}); either the edge is not critical or counting "
              "is wrong", file=sys.stderr)
        return 2
    return 0


def _cmd_selftest(args) -> int:
    del args
    checks = 0

    def ok(label: str) -> None:
        nonlocal checks
        checks += 1
        print(f"ok: {label}")

    def expect(cond: bool, label: str) -> None:
        if not cond:
            raise InternalConsistencyError(f"selftest failed: {label}")
        ok(label)

    for k, classes in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34)):
        cat = build_catalog(k)
        expect(cat.class_count == classes and
               cat.labeled_total == 1 << (k * (k - 1) // 2),
               f"catalog k={k}: {classes} classes, labeled total 2^C(k,2)")
    expect(all(SmallGraph.from_graph6(text) == cat.graph(i)
               and cat.graph(i).to_graph6() == text
               for cat in map(build_catalog, range(1, 6))
               for i, text in enumerate(cat.graph6)),
           "graph6 of the k<=5 catalogs round-trips")
    # Before any hom vector reads them, so the maps come from the cache
    # files when those exist.
    for kind in CLASS_MAPS:
        expect(all(kind(k) == kind.compute(tuple(
                       map(build_catalog, range(kind.lowest(k), k + 1))))
                   for k in kind.ks if k <= 5),
               f"{kind.what} k<=5 from the cache equal a fresh compute")

    spec = spectrum_report(get_property("no-edges"), 4)
    expect(spec.f == (1, 0, 0, 0, 0, 0, 0) and spec.hamming_weight == 1,
           "spectrum no-edges k=4: f=(1,0,0,0,0,0,0), hw=1")

    icosahedron = SmallGraph.from_edges(
        12, [(0, i) for i in range(1, 6)] + [(11, i) for i in range(6, 11)]
        + [(i, i % 5 + 1) for i in range(1, 6)]
        + [(i, (i - 5) % 5 + 6) for i in range(6, 11)]
        + [(i, i + 5) for i in range(1, 6)]
        + [(i, i % 5 + 6) for i in range(1, 6)])
    petersen_pairs = ([(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    planar = get_property("planar")
    expect(not planar(SmallGraph.complete_bipartite(3, 3))
           and not planar(SmallGraph.from_edges(10, petersen_pairs))
           and planar(icosahedron),
           "planar: K3,3 and Petersen are not, the icosahedron is")

    path3 = SmallGraph.path(3)
    from .graphs import HostGraph
    k3 = HostGraph.from_small(SmallGraph.complete(3))
    expect(count_hom(path3, k3) == 12,
           "hom count P3 -> K3 equals 3*2*2")
    k4 = HostGraph.from_small(SmallGraph.complete(4))
    expect(count_hom(SmallGraph.cycle(5), k4) == 240,
           "hom count C5 -> K4 equals 3^5 - 3 (a bag joined by a fill edge)")
    expect(count_hom(SmallGraph.complete_bipartite(1, 3), k4) == 108,
           "hom count K1,3 -> K4 equals 4*3^3 (a vertex joining three tables)")

    host = HostGraph.from_edges(
        8, [(a, b) for a in range(4) for b in range(4, 8)
            if (a + b) % 3 != 0])
    for name in ("connected", "bipartite", "triangle-free"):
        phi = get_property(name)
        for k in (2, 3, 4):
            expect(counting.count_basis(phi, k, host) ==
                   counting.count_brute(phi, k, host),
                   f"basis equals brute: {name}, k={k}")

    petersen = HostGraph.from_edges(10, petersen_pairs)
    connected = get_property("connected")
    expect(counting.count_basis(connected, 5, petersen) ==
           sum(coef * count_hom(g, petersen)
               for g, coef in hom_vector(connected, 5).entries),
           "basis through shared tables equals the pattern-by-pattern sum: "
           "connected, k=5, Petersen")

    from .hombasis import h_tilde_vector
    from .spectrum import h_vector, f_vector
    hv = hom_vector(get_property("bipartite"), 4)
    ht = h_tilde_vector(hv)
    hvec = h_vector(f_vector(get_property("bipartite"), 4))
    expect(tuple(factorial(4) * value for value in ht) == hvec,
           "k! * h-tilde equals h for bipartite, k=4")

    for name in ("perfect", "chordal", "split"):
        pattern, _ = KNOWN_CRITICAL_EDGES[name]
        edge = next(iter(pattern.edge_pairs()))
        check = bounded_critical_check(get_property(name), pattern, edge,
                                       bound=2)
        expect(not check.refuted,
               f"critical edge of {name} survives grid bound 2")

    c4 = HostGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    via = count_independent_sets_via_reduction(
        c4, bipartition_of(c4), 2, get_property("chordal"),
        SmallGraph.cycle(4), (0, 1))
    expect(via == 2, "reduction counts the 2 independent pairs of C4")

    print(f"selftest passed ({checks} checks)")
    return 0


# ------------------------------------------------------------- dispatcher

@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state."""
    parser = _Parser(
        prog="indsub",
        description="Count induced subgraphs with a property through "
                    "homomorphism counts, and diagnose the hardness "
                    "profile of the property.")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("catalog",
                       help="enumerate k-vertex graphs up to isomorphism")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list", action="store_true",
                   help="include one entry per isomorphism class")
    p.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("spectrum",
                       help="edge-count spectrum and h-vector of a property")
    _add_property_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("homvector",
                       help="homomorphism-basis coefficients of a property")
    _add_property_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.set_defaults(func=_cmd_homvector)

    p = sub.add_parser("count",
                       help="count induced k-subgraphs satisfying a property")
    p.add_argument("--graph", required=True, metavar="FILE",
                   help="host graph file (graph6 or edge list)")
    _add_property_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("basis", "brute", "both"),
                   default="basis")
    p.add_argument("--budget", type=int,
                   default=counting.DEFAULT_SUBSET_BUDGET,
                   help="work budget for the brute-force method")
    p.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("diagnose",
                       help="hardness profile of a property over a k range")
    _add_property_options(p)
    p.add_argument("--kmax", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit JSON (default)")
    fmt.add_argument("--text", action="store_true",
                     help="emit a plain-text report")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("critical",
                       help="critical-edge certificates for forbidden graphs")
    p.add_argument("--forbidden", required=True, metavar="FILE",
                   help="graph6 list of forbidden graphs")
    p.add_argument("--property", metavar="NAME",
                   help="check edges against this built-in property "
                        "instead of the forbidden-induced one")
    p.add_argument("--bound", type=int, default=DEFAULT_CRITICAL_BOUND,
                   help="grid bound for explosion checks")
    p.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("reduce-demo",
                       help="count independent sets of a bipartite host "
                            "through property counting")
    p.add_argument("--bipartite", required=True, metavar="FILE",
                   help="bipartite host graph file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--forbidden", required=True, metavar="FILE",
                   help="graph6 list; the first graph supplies the "
                        "critical edge")
    p.add_argument("--property", metavar="NAME",
                   help="count with this built-in property instead of the "
                        "forbidden-induced one")
    p.add_argument("--method", choices=("basis", "brute"), default="brute",
                   help="counting method for the reduction terms")
    p.add_argument("--bound", type=int, default=DEFAULT_CRITICAL_BOUND,
                   help="grid bound for the criticality pre-check")
    p.add_argument("--budget", type=int,
                   default=counting.DEFAULT_SUBSET_BUDGET)
    p.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.set_defaults(func=_cmd_reduce_demo)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _fail(prefix: str, exc: Exception) -> int:
    """Exit status 1 with one stderr line: line breaks that a file name or
    an argument value brings into the message are escaped."""
    message = "\\n".join(str(exc).splitlines())
    print(f"{prefix}: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            raise UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except UsageError as exc:
        return _fail("usage error", exc)
    except UnknownPropertyError as exc:
        return _fail("unknown property", exc)
    except FormatError as exc:
        return _fail("malformed graph file", exc)
    except BudgetExceededError as exc:
        return _fail("budget exceeded", exc)
    except PredicateError as exc:
        return _fail("property evaluation failed", exc)
    except ValueError as exc:
        return _fail("usage error", exc)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
