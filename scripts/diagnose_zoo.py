#!/usr/bin/env python3
"""Run the hardness diagnosis across the built-in property zoo.

For each property this runs `indsub diagnose --property NAME --kmax K`,
with --text when asked, so it prints the CLI's own reports one after the
other: one JSON object per property, or one plain-text report each.

Usage:
    python3 scripts/diagnose_zoo.py [--kmax K] [--properties a,b,c] [--text]
"""

import argparse
import sys

from indsub import cli
from indsub.properties import BUILTIN_PROPERTIES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--kmax", type=int, default=5,
                        help="largest size to examine")
    parser.add_argument("--properties", metavar="NAMES",
                        help="comma-separated subset of the zoo "
                             "(default: every built-in)")
    parser.add_argument("--text", action="store_true",
                        help="plain-text reports instead of JSON")
    args = parser.parse_args(argv)
    names = ([name.strip() for name in args.properties.split(",")]
             if args.properties else sorted(BUILTIN_PROPERTIES))
    unknown = [name for name in names if name not in BUILTIN_PROPERTIES]
    if unknown:
        parser.error(f"unknown properties {unknown} "
                     f"(known: {', '.join(sorted(BUILTIN_PROPERTIES))})")
    for name in names:
        code = cli.main(["diagnose", "--property", name, "--kmax",
                         str(args.kmax)] + (["--text"] if args.text else []))
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
