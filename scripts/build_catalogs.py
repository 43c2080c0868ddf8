#!/usr/bin/env python3
"""Precompute and cache the small-graph catalogs and the maps kept beside them.

The catalog of isomorphism classes on k vertices backs every f-vector,
coefficient vector, and truth-table lookup.  Building k = 8 from scratch
takes 1.2-1.9 s on a 2-core machine; this script warms the on-disk cache
once so later runs (and the test suite, when pointed at the same cache
directory) start instantly.  It then writes, for each k up to K it covers,
every property-independent map declared beside the catalogs
(catalog.CLASS_MAPS): the edge-deletion maps, quotient rows and
elimination orders for 1 <= k <= 7, and the vertex-deletion maps for
2 <= k <= 6.

Usage:
    python3 scripts/build_catalogs.py [--kmax K] [--cache-dir DIR]
"""

import argparse
import sys
import time

from indsub.catalog import CLASS_MAPS, MAX_CATALOG_K, build_catalog


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
    for kind in CLASS_MAPS:
        for k in kind.ks:
            if k > args.kmax:
                break
            start = time.monotonic()
            kind(k, cache_dir=args.cache_dir)
            elapsed = time.monotonic() - start
            print(f"k={k}: {kind.what} [{elapsed:.2f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
