#!/usr/bin/env python3
"""Run the hardness diagnosis across the built-in property zoo.

Prints one block per property: the per-size spectrum summary (d, Hamming
weight, beta, densest-witness statistics) followed by the classification
lines.  Useful as a quick overview of which structural route, if any,
applies to each property.

Usage:
    python3 scripts/diagnose_zoo.py [--kmax K] [--properties a,b,c] [--json]
"""

import argparse
import json
import sys

from indsub.cli import _enc
from indsub.hardness import MAX_DIAGNOSE_K, diagnose
from indsub.properties import BUILTIN_PROPERTIES, get_property


def text_block(report) -> str:
    lines = [f"== {report.property_name} =="]
    flags = ", ".join(report.flags_declared) or "none"
    lines.append(f"   flags: {flags} (verified to "
                 f"{report.flags_verified_to} vertices, "
                 f"{len(report.flag_violations)} violations)")
    for rec in report.records:
        line = (f"   k={rec.k}: d={rec.d} hw={rec.hamming_weight} "
                f"beta={rec.beta} poised={'yes' if rec.poised else 'no'}")
        if rec.witness is not None:
            line += (f" witness={rec.witness} ({rec.witness_edges} edges, "
                     f"tw {rec.witness_treewidth})")
        lines.append(line)
    lines.append(f"   support prefix: {list(report.support_prefix)}")
    for text in report.classification:
        lines.append(f"   * {text}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=5,
                        help=f"largest size to examine (1..{MAX_DIAGNOSE_K})")
    parser.add_argument("--properties", metavar="NAMES",
                        help="comma-separated subset of the zoo "
                             "(default: every built-in)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of text")
    args = parser.parse_args(argv)
    if not 1 <= args.kmax <= MAX_DIAGNOSE_K:
        parser.error(f"--kmax must be in 1..{MAX_DIAGNOSE_K}")
    names = ([name.strip() for name in args.properties.split(",")]
             if args.properties else sorted(BUILTIN_PROPERTIES))
    unknown = [name for name in names if name not in BUILTIN_PROPERTIES]
    if unknown:
        parser.error(f"unknown properties {unknown} "
                     f"(known: {', '.join(sorted(BUILTIN_PROPERTIES))})")
    reports = [diagnose(get_property(name), args.kmax) for name in names]

    if args.json:
        payload = []
        for rep in reports:
            payload.append({
                "property": rep.property_name,
                "k_max": _enc(rep.k_max),
                "flags": list(rep.flags_declared),
                "flag_violations": _enc(
                    [v.flag for v in rep.flag_violations]),
                "records": [
                    {
                        "k": _enc(rec.k),
                        "d": _enc(rec.d),
                        "hw": _enc(rec.hamming_weight),
                        "beta": _enc(rec.beta),
                        "poised": rec.poised,
                        "witness": rec.witness,
                        "witness_edges": _enc(rec.witness_edges),
                        "witness_treewidth": _enc(rec.witness_treewidth),
                    }
                    for rec in rep.records
                ],
                "support_prefix": _enc(list(rep.support_prefix)),
                "classification": list(rep.classification),
            })
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print("\n\n".join(text_block(rep) for rep in reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
