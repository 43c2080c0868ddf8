#!/usr/bin/env python3
"""Precompute and cache the small-graph catalogs and the maps kept beside them.

The catalog of isomorphism classes on k vertices backs every f-vector,
coefficient vector, and truth-table lookup.  Building k = 8 from scratch
takes 1.2-1.9 s on a 2-core machine; this script warms the on-disk cache
once so later runs (and the test suite, when pointed at the same cache
directory) start instantly.  It also writes the property-independent maps
beside the catalogs: the edge-deletion maps and quotient rows the hom basis
reads (k <= MAX_HOM_VECTOR_K) and the vertex-deletion maps the flag checks
read (2 <= k <= MAX_FLAG_K).

Usage:
    python3 scripts/build_catalogs.py [--kmax K] [--cache-dir DIR]
"""

import argparse
import sys
import time

from indsub.catalog import (
    MAX_CATALOG_K,
    MAX_FLAG_K,
    build_catalog,
    edge_deletions,
    vertex_deletions,
)
from indsub.hombasis import MAX_HOM_VECTOR_K, quotient_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=MAX_CATALOG_K,
                        help=f"build catalogs for 1..K (max {MAX_CATALOG_K})")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache directory (default: the package's "
                             "standard location, or $INDSUB_CACHE_DIR)")
    args = parser.parse_args(argv)

    if not 1 <= args.kmax <= MAX_CATALOG_K:
        parser.error(f"--kmax must be between 1 and {MAX_CATALOG_K}")

    for k in range(1, args.kmax + 1):
        start = time.monotonic()
        cat = build_catalog(k, cache_dir=args.cache_dir)
        elapsed = time.monotonic() - start
        print(f"k={k}: {cat.class_count} classes, "
              f"{cat.labeled_total} labeled graphs [{elapsed:.2f}s]")
    maps = (("edge-deletion map", edge_deletions, 1, MAX_HOM_VECTOR_K),
            ("quotient rows", quotient_rows, 1, MAX_HOM_VECTOR_K),
            ("vertex-deletion map", vertex_deletions, 2, MAX_FLAG_K))
    for what, read, lowest, highest in maps:
        for k in range(lowest, min(args.kmax, highest) + 1):
            start = time.monotonic()
            read(k, cache_dir=args.cache_dir)
            elapsed = time.monotonic() - start
            print(f"k={k}: {what} [{elapsed:.2f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
