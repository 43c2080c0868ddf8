#!/usr/bin/env python3
"""Precompute and cache the small-graph catalogs and the maps kept beside them.

The catalog of isomorphism classes on k vertices backs every f-vector,
coefficient vector, and truth-table lookup.  Building k = 8 from scratch
takes about 1 s on a 2-core Xeon; this script warms the on-disk cache
once so later runs (and the test suite, when pointed at the same cache
directory) start instantly.  It then writes, for each k up to K it covers,
every property-independent map declared beside the catalogs
(catalog.CLASS_MAPS): the edge-deletion maps and quotient rows for
1 <= k <= 7, and the vertex-deletion maps for 2 <= k <= 6.  Last it
plans every class on at most MAX_HOM_VECTOR_K = 7 vertices that it built
a catalog for, as a basis count does, into the plan file of its vertex
count m, k{m}.plans.<interpreter cache tag> (counting.class_plans), so a
basis count in the directory plans no class and runs no treewidth DP.

The cache directory is $INDSUB_CACHE_DIR, or ~/.cache/indsub when that is
unset or empty, as for every indsub call; --cache-dir DIR sets
INDSUB_CACHE_DIR to DIR before anything is built.

Usage:
    python3 scripts/build_catalogs.py [--kmax K] [--cache-dir DIR]
"""

import argparse
import os
import sys
import time

from indsub.catalog import (
    CACHE_ENV_VAR,
    CLASS_MAPS,
    MAX_CATALOG_K,
    MAX_HOM_VECTOR_K,
    build_catalog,
)
from indsub.counting import class_plans
from indsub.homcount import PLAN_SUFFIX


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=MAX_CATALOG_K,
                        help=f"build catalogs for 1..K (max {MAX_CATALOG_K})")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help=f"cache directory; sets ${CACHE_ENV_VAR} "
                             "(default: its value, or ~/.cache/indsub)")
    args = parser.parse_args(argv)

    if not 1 <= args.kmax <= MAX_CATALOG_K:
        parser.error(f"--kmax must be between 1 and {MAX_CATALOG_K}")
    if args.cache_dir:
        os.environ[CACHE_ENV_VAR] = args.cache_dir

    for k in range(1, args.kmax + 1):
        start = time.monotonic()
        cat = build_catalog(k)
        elapsed = time.monotonic() - start
        print(f"k={k}: {cat.class_count} classes, "
              f"{cat.labeled_total} labeled graphs [{elapsed:.2f}s]")
    for kind in CLASS_MAPS:
        for k in kind.ks:
            if k > args.kmax:
                break
            start = time.monotonic()
            kind(k)
            elapsed = time.monotonic() - start
            print(f"k={k}: {kind.what} [{elapsed:.2f}s]")
    for k in range(1, min(args.kmax, MAX_HOM_VECTOR_K) + 1):
        start = time.monotonic()
        cat = build_catalog(k)
        class_plans(cat.graphs())
        elapsed = time.monotonic() - start
        print(f"k{k}.{PLAN_SUFFIX}: {cat.class_count} class plans "
              f"[{elapsed:.2f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
