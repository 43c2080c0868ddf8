"""Independent reference counts for the count workload's expected digests.

``induced_histogram`` counts, over every k-subset of a host, how often
each labelled induced graph occurs -- the same quantity ``count_brute``
enumerates, but vectorised with numpy over the last three vertices of the
subset, so that C(80, 5) or C(60, 6) subsets take seconds.  It shares no
code with indsub; the property predicates are applied once per labelled
k-vertex graph, as count_brute applies them once per subset.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

CHUNK = 1 << 21


def induced_histogram(n: int, edges, k: int) -> tuple[list, np.ndarray]:
    """(pairs, hist): pairs lists the vertex pairs of a k-set in bit order;
    hist[mask] counts the k-subsets whose induced graph has edge bitmask
    ``mask`` over those pairs (subset vertices taken in increasing order)."""
    if k < 3 or k > n:
        raise ValueError("need 3 <= k <= n")
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    pairs = list(combinations(range(k), 2))
    bit = {p: i for i, p in enumerate(pairs)}
    a, b, c = k - 3, k - 2, k - 1
    # tails[m]: all triples x < y < z of vertices above m, plus their bits
    tails = {}
    for m in range(-1, n - 3):
        tri = np.array(list(combinations(range(m + 1, n), 3)),
                       dtype=np.int64).reshape(-1, 3)
        x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
        inner = ((adj[x, y] << bit[(a, b)]) | (adj[x, z] << bit[(a, c)])
                 | (adj[y, z] << bit[(b, c)]))
        tails[m] = (x, y, z, inner)
    hist = np.zeros(1 << len(pairs), dtype=np.int64)
    pending, size = [], 0
    for prefix in combinations(range(n), k - 3):
        last = prefix[-1] if prefix else -1
        if last not in tails:
            continue
        x, y, z, mask = tails[last]
        const = sum(int(adj[prefix[i], prefix[j]]) << bit[(i, j)]
                    for i, j in combinations(range(len(prefix)), 2))
        mask = mask + const
        for i, p in enumerate(prefix):
            row = adj[p]
            mask = (mask | (row[x] << bit[(i, a)]) | (row[y] << bit[(i, b)])
                    | (row[z] << bit[(i, c)]))
        pending.append(mask)
        size += mask.size
        if size >= CHUNK:
            hist += np.bincount(np.concatenate(pending), minlength=hist.size)
            pending, size = [], 0
    if pending:
        hist += np.bincount(np.concatenate(pending), minlength=hist.size)
    return pairs, hist


def induced_counts(n: int, edges, k: int, predicates: dict) -> dict:
    """name -> number of k-subsets whose induced graph satisfies the
    predicate; each predicate takes (k, list of edges)."""
    pairs, hist = induced_histogram(n, edges, k)
    out = {name: 0 for name in predicates}
    for mask in np.flatnonzero(hist):
        graph_edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        for name, pred in predicates.items():
            if pred(k, graph_edges):
                out[name] += int(hist[mask])
    return out
