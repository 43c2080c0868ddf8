"""Catalogs of isomorphism classes of k-vertex graphs, k <= 8.

The classes on k vertices come from one-vertex extensions of the (k-1)
catalog with canonical-form deduplication, starting from the 0-vertex
graph.  Neighbor masks in one orbit of the parent's automorphism group
give isomorphic extensions, so only one mask per orbit is considered.
A class has k!/#Aut labeled copies, and the copies must sum to 2^C(k,2),
which the builder asserts.

Of those masks, only the ones whose new vertex has the largest vertex key
in the extension are canonicalised, as in McKay's canonical augmentation
(J. Algorithms 1998).  The key is the vertex's degree, then the sum of its
neighbors' degrees; it is computed from the parent's degrees and the mask
bits, and the sums only when degrees tie.  No class is lost.  Take a class
C and a vertex w of C with the largest key.  C - w is isomorphic to a
parent P through some phi, and an automorphism of P carries phi(N(w)) to
its orbit representative; together they extend to an isomorphism from C
onto that representative's extension which sends w to the new vertex.
The key is an isomorphism invariant, so the new vertex has the largest key
too, and the extension is canonicalised.  Over k <= 8 this canonicalises
14,655 extensions for 13,598 classes; one mask per orbit alone took 85,023.

Catalogs are cached on disk, one "graph6 aut" line per class under a
versioned header, in the builder's order: by edge count, then by edge
bitset.  The cache directory comes from INDSUB_CACHE_DIR or defaults to
~/.cache/indsub; build_catalog(cache_dir=) overrides it.  A GraphCatalog
keeps, in that order, each class's edge bitset, automorphism count and
graph6 text, as read from the file or encoded once by the builder; a
SmallGraph is built per class only on demand.

Beside k{k}.catalog the cache directory keeps per-class maps that do not
depend on any property.  Each is a ClassMap, declared once with the k it
covers and called as its own accessor, map(k, cache_dir=): one line per
class in catalog order, under the header "# indsub <name> v1 k=..
classes=.. catalog=<sha256 of each k{m}.catalog file the rows read, in
order of m, comma-separated>".  They are
  k{k}.edges      edge_deletions, 1 <= k <= 7: the class index after each
                  edge deletion, in edge_pairs order; the header names
                  k{k}.catalog;
  k{k}.vertices   vertex_deletions, 2 <= k <= 6: the (k-1)-class index
                  after each vertex deletion; it names k{k-1} and k{k};
  k{k}.quotients  hombasis.quotient_rows, 1 <= k <= 7: pairs of global
                  class id (catalog m's classes follow those of all
                  smaller catalogs) and Moebius sum; it names k{1}..k{k};
  k{k}.orders     counting.elimination_orders, 1 <= k <= 7: the
                  representative's vertices in the order the treewidth DP
                  eliminates them; it names k{k}.
Loading checks the header against the catalog files on disk, and each row
cheaply: an edge row has e(C) entries, each a class with e(C) - 1 edges; a
vertex row has k entries, the one for v a class with e(C) - deg(v) edges; a
quotient row holds ids in range and nonzero sums and ends with the class
itself and sum 1; an order row is a permutation of range(k).

Catalogs and maps share one read-or-rebuild routine.  A file that fails (a
FormatError, or an OSError on reading) is logged as a rebuild; the value is
computed again (the catalog by the builder, a map by index_of lookups, or
by the treewidth DP for the orders) and written again through a temporary
file and os.replace, a map only as long as every catalog file it names
exists; a failed write is logged.  A map is written on its first call,
never by building or loading a catalog.

GraphCatalog.index_of finds a graph's class, which the maps above and the
truth tables do for every lookup they compute.  On its first lookup a
catalog buckets its classes by canon.refinement_invariant; a graph whose
invariant only one class has belongs to that class, and only a graph whose
invariant several classes share, or none, is canonicalised.  Building or loading a
catalog computes no invariant.
"""

from __future__ import annotations

import hashlib
import logging
import os
import uuid
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial
from pathlib import Path

from .canon import (
    _canonical_data,
    automorphism_generators,
    canon_key,
    refinement_invariant,
)
from .errors import FormatError, InternalConsistencyError
from .graphs import (
    SmallGraph,
    _graph6_chunk_edges,
    bits_of,
    pair_count,
    pair_index,
    pair_table,
)

MAX_CATALOG_K = 8
# The flag checks, the only readers of the vertex-deletion maps, stop here.
MAX_FLAG_K = 6
# Hom vectors, and with them the maps only they and the basis count read,
# stop here.
MAX_HOM_VECTOR_K = 7
CACHE_ENV_VAR = "INDSUB_CACHE_DIR"
_CACHE_HEADER = "# indsub catalog v1"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GraphCatalog:
    """The classes on k vertices in catalog order, as three parallel
    tuples: edge bitset, automorphism count and graph6 text.  graph(i)
    builds the i-th representative on its first call and keeps it."""
    k: int
    edges: tuple[int, ...]
    auts: tuple[int, ...]
    graph6: tuple[str, ...]
    _graphs: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def class_count(self) -> int:
        return len(self.edges)

    @property
    def labeled_total(self) -> int:
        kfact = factorial(self.k)
        return sum(kfact // aut for aut in self.auts)

    def graph(self, i: int) -> SmallGraph:
        g = self._graphs.get(i)
        if g is None:
            g = self._graphs[i] = SmallGraph(self.k, self.edges[i])
        return g

    def graphs(self):
        """Every representative, in catalog order."""
        return map(self.graph, range(len(self.edges)))

    def index_of(self, g: SmallGraph) -> int:
        """Catalog index of g's class; KeyError when g is in none.  A class
        alone in its refinement-invariant bucket needs no canonical form."""
        i = self._buckets.get(refinement_invariant(g))
        if i is not None:
            return i
        return self._index[canon_key(g)]

    @cached_property
    def _buckets(self) -> dict:
        """Refinement invariant -> index of the only class that has it, or
        None when several classes share it.  Built on the first lookup,
        never when a catalog is built or loaded."""
        buckets = {}
        for i, g in enumerate(self.graphs()):
            inv = refinement_invariant(g)
            buckets[inv] = None if inv in buckets else i
        return buckets

    @cached_property
    def _index(self) -> dict:
        return {(self.k, edges, 0): i for i, edges in enumerate(self.edges)}


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "indsub"


def _cache_dir(cache_dir_str: str | None) -> Path:
    return Path(cache_dir_str) if cache_dir_str else default_cache_dir()


def _build_classes(k: int, cache_dir_str: str | None) -> dict[int, int]:
    """Canonical edge-bitset -> aut for every class on k vertices: extend
    each (k-1)-vertex representative by one vertex, joined to one neighbor
    mask per orbit of the representative's automorphism group whose new
    vertex has the largest vertex key.  The base case is the 0-vertex
    graph."""
    if k == 1:
        parents = [(0, 1)]
    else:
        below = _catalog_cached(k - 1, cache_dir_str)
        parents = zip(below.edges, below.auts)
    # Edge bits of the k-vertex graph: lift[b] for the parent's pair b, and
    # nb_bits[mask] for the new vertex joined to the vertices in mask.
    lift = [1 << pair_index(k, i, j) for i, j in pair_table(k - 1)]
    new_pair = [1 << pair_index(k, i, k - 1) for i in range(k - 1)]
    nb_bits = [0] * (1 << (k - 1))
    for mask in range(1, 1 << (k - 1)):
        low = mask & -mask
        nb_bits[mask] = nb_bits[mask ^ low] | new_pair[low.bit_length() - 1]
    found: dict[int, int] = {}
    for pedges, paut in parents:
        parent = SmallGraph(k - 1, pedges)
        base = 0
        for b in bits_of(pedges):
            base |= lift[b]
        if paut == 1:
            masks = range(1 << (k - 1))
        else:
            masks = _orbit_representatives(
                k - 1, automorphism_generators(parent))
        for nbmask in _key_maximal_masks(parent.adj_rows(), masks):
            cf, aut = _canonical_data(SmallGraph(k, base | nb_bits[nbmask]))
            if cf.edges not in found:
                found[cf.edges] = aut
    return found


def _key_maximal_masks(rows: list[int], masks):
    """The masks, in order, whose new vertex has the largest vertex key in
    the extension of the parent with neighbor bitmasks rows by a vertex
    joined to the mask.  A vertex's key is its degree, then the sum of its
    neighbors' degrees; ties with the new vertex are allowed.

    Degrees settle most masks: a parent vertex beats the new one when its
    degree exceeds the mask's size, or equals it and the vertex is in the
    mask.  Neighbor-degree sums are compared only with the parent vertices
    whose degree in the extension equals the mask's size."""
    m = len(rows)
    deg = [r.bit_count() for r in rows]
    nbsum = [sum(deg[x] for x in bits_of(r)) for r in rows]
    # exact[d]: the parent vertices of degree d; above[d]: those above d.
    exact = [0] * (m + 2)
    for u, du in enumerate(deg):
        exact[du] |= 1 << u
    above = [0] * (m + 2)
    for d in range(m, -1, -1):
        above[d] = above[d + 1] | exact[d + 1]
    for mask in masks:
        d = mask.bit_count()
        if above[d] or exact[d] & mask:
            continue
        # With d == 0 every vertex is isolated and all keys are (0, 0).
        ties = exact[d] | exact[d - 1] & mask if d else 0
        if ties:
            # In the extension a vertex in the mask gains one degree and
            # the new vertex as a neighbor of degree d.
            own = d + sum(deg[u] for u in bits_of(mask))
            if any(nbsum[u] + (rows[u] & mask).bit_count()
                   + (d if mask >> u & 1 else 0) > own
                   for u in bits_of(ties)):
                continue
        yield mask


def _orbit_representatives(m: int, gens) -> list[int]:
    """The least subset of range(m), as a bitmask, in each orbit of the
    group that the vertex permutations gens generate."""
    images = []
    for gen in gens:
        img = [0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            img[mask] = img[mask ^ low] | 1 << gen[low.bit_length() - 1]
        images.append(img)
    seen = bytearray(1 << m)
    reps = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for img in images:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return reps


@lru_cache(maxsize=None)
def _catalog_cached(k: int, cache_dir_str: str | None) -> GraphCatalog:
    return _read_or_rebuild(
        "catalog", k, _cache_dir(cache_dir_str) / f"k{k}.catalog",
        lambda path: _read_cache(k, path),
        lambda: _new_catalog(k, cache_dir_str), _write_cache)


def _new_catalog(k: int, cache_dir_str: str | None) -> GraphCatalog:
    classes = _build_classes(k, cache_dir_str)
    edges = tuple(sorted(classes, key=lambda e: (e.bit_count(), e)))
    cat = GraphCatalog(k, edges, tuple(map(classes.__getitem__, edges)),
                       tuple(SmallGraph(k, e).to_graph6() for e in edges))
    if cat.labeled_total != 1 << pair_count(k):
        raise InternalConsistencyError(
            f"catalog k={k}: labeled copies sum to {cat.labeled_total}, "
            f"expected 2^{pair_count(k)}")
    return cat


def _read_or_rebuild(what: str, k: int, path: Path | None,
                     read: Callable, build: Callable, write: Callable):
    """read(path) when the file at path exists and passes; otherwise
    build(), then write(value, path).  A file that fails to read is
    logged as a rebuild, and a failed write is logged and changes no
    result.  path None means there is no file to read or write."""
    if path is not None and path.exists():
        try:
            return read(path)
        except (FormatError, OSError) as exc:
            log.warning("rebuilding %s k=%d: %s", what, k, exc)
    value = build()
    if path is not None:
        try:
            write(value, path)
        except OSError as exc:
            log.warning("could not write %s %s: %s", what, path, exc)
    return value


def build_catalog(k: int, *, cache_dir=None) -> GraphCatalog:
    if not 1 <= k <= MAX_CATALOG_K:
        raise ValueError(f"catalog supports 1 <= k <= {MAX_CATALOG_K}")
    return _catalog_cached(k, str(cache_dir) if cache_dir else None)


def _write_cache(cat: GraphCatalog, path: Path) -> None:
    _write_lines(path, f"{_CACHE_HEADER} k={cat.k} classes={cat.class_count}",
                 map("{} {}".format, cat.graph6, cat.auts))


def _write_lines(path: Path, header: str, lines) -> None:
    """Write the header and lines through a temporary file unique to this
    writer, then rename it into place, so concurrent writers never expose
    a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(f"{header}\n")
            for line in lines:
                fh.write(f"{line}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_cache(k: int, path: Path) -> GraphCatalog:
    """One pass over the lines "graph6 aut", each held to the writer's
    text; a graph6 character's edges are one lookup in its position's
    table.  Empty lines are skipped; equal aut values share one int."""
    # Position 0 holds the header character.  The bits past the last pair
    # pad the last body character and must be zero.
    pad = (1 << -pair_count(k) % 6) - 1
    tables = [{chr(k + 63): 0}] + [
        {chr(d + 63): e for d, e in enumerate(table)}
        for table in _graph6_chunk_edges(k)]
    tables[-1] = {c: e for c, e in tables[-1].items()
                  if not (ord(c) - 63) & pad}
    kfact = factorial(k)
    edges, auts, texts = [], [], []
    known: dict[str, int] = {}
    last = -1
    with open(path, errors="replace") as fh:
        head = fh.readline()
        if not head.startswith(_CACHE_HEADER):
            raise FormatError(f"{path}: bad header")
        fields = dict(tok.split("=", 1) for tok in head.split() if "=" in tok)
        if fields.get("k") != str(k):
            raise FormatError(f"{path}: header k mismatch")
        for ln in filter("\n".__ne__, fh):
            try:
                g6, aut_s = ln.split(" ")
                e = sum(map(dict.__getitem__, tables, g6))
                aut = known.get(aut_s)
                if aut is None:
                    aut = known[aut_s] = int(aut_s)
                    if aut <= 0 or kfact % aut:
                        raise ValueError(f"automorphism count {aut}")
            except (ValueError, KeyError) as exc:
                raise FormatError(f"{path}: bad line {ln!r}") from exc
            # Truth tables and the deletion maps index classes by this order.
            key = e.bit_count() << 32 | e
            if len(g6) != len(tables) or key <= last:
                raise FormatError(f"{path}: bad or out-of-order line {ln!r}")
            last = key
            edges.append(e)
            auts.append(aut)
            texts.append(g6)
    if fields.get("classes") != str(len(edges)):
        raise FormatError(f"{path}: class count mismatch")
    cat = GraphCatalog(k, tuple(edges), tuple(auts), tuple(texts))
    if cat.labeled_total != 1 << pair_count(k):
        raise FormatError(f"{path}: labeled total mismatch")
    return cat


@dataclass(frozen=True)
class ClassMap:
    """A property-independent map with one row of integers per class of
    the k-vertex catalog, for each k in ks, kept beside that catalog as
    k{k}.{suffix}.  The rows read the catalogs lowest(k)..k, which
    compute(cats) gets in that order; check(cats) gives the load check of
    one row, (index, row) -> bool.  Declaring a map adds it to CLASS_MAPS,
    and calling it gives its rows."""
    suffix: str
    what: str                 # in messages
    header: str
    ks: range
    lowest: Callable[[int], int]
    compute: Callable
    check: Callable

    def __post_init__(self):
        CLASS_MAPS.append(self)

    def __call__(self, k: int, *, cache_dir=None
                 ) -> tuple[tuple[int, ...], ...]:
        """The rows for the k-vertex catalog, read from their file, or
        computed and written there when that file is missing or invalid."""
        if k not in self.ks:
            raise ValueError(
                f"{self.what} cover {self.ks[0]} <= k <= {self.ks[-1]}")
        return _class_map_cached(self, k,
                                 str(cache_dir) if cache_dir else None)


# Every declared ClassMap, in the order of declaration.  Importing indsub
# imports each module that declares one.
CLASS_MAPS: list[ClassMap] = []


@lru_cache(maxsize=None)
def _class_map_cached(kind: ClassMap, k: int, cache_dir_str: str | None
                      ) -> tuple[tuple[int, ...], ...]:
    cats = tuple(build_catalog(m, cache_dir=cache_dir_str)
                 for m in range(kind.lowest(k), k + 1))
    directory = _cache_dir(cache_dir_str)
    try:
        header = _map_header(kind, cats, directory)
    except OSError:
        header = None        # no catalog file for the map to name
    return _read_or_rebuild(
        kind.what, k,
        None if header is None else directory / f"k{k}.{kind.suffix}",
        lambda path: _read_map(path, header, cats[-1].class_count,
                               kind.check(cats)),
        lambda: kind.compute(cats),
        lambda rows, path: _write_lines(
            path, header, (" ".join(map(str, row)) for row in rows)))


def _map_header(kind: ClassMap, cats, directory: Path) -> str:
    """The header naming the sha256 of each catalog file the rows read;
    OSError when one of those files cannot be read."""
    digests = ",".join(
        hashlib.sha256((directory / f"k{c.k}.catalog").read_bytes())
        .hexdigest() for c in cats)
    return (f"{kind.header} k={cats[-1].k} classes={cats[-1].class_count} "
            f"catalog={digests}")


def _read_map(path: Path, header: str, count: int, row_ok
              ) -> tuple[tuple[int, ...], ...]:
    with open(path, errors="replace") as fh:
        head, *lines = fh.read().split("\n")
    if head != header:
        raise FormatError(f"{path}: header {head[:200]!r} is not {header!r}")
    if len(lines) != count + 1 or lines[-1]:
        raise FormatError(f"{path}: not {count} rows")
    lines.pop()
    rows = []
    for i, line in enumerate(lines):
        try:
            row = tuple(map(int, line.split()))
        except ValueError as exc:
            raise FormatError(f"{path}: bad row {i}: {line!r}") from exc
        if not row_ok(i, row):
            raise FormatError(f"{path}: bad row {i}: {line!r}")
        rows.append(row)
    return tuple(rows)


def _starts(cat: GraphCatalog) -> list[int]:
    """Classes are in order of edge count, so those with e edges are the
    indices starts[e] .. starts[e + 1] - 1, for 0 <= e <= C(k, 2)."""
    counts = list(map(int.bit_count, cat.edges))
    return [bisect_left(counts, e) for e in range(pair_count(cat.k) + 2)]


def compute_edge_deletions(cat: GraphCatalog) -> tuple[tuple[int, ...], ...]:
    """The edge-deletion map of cat by one index_of lookup per edge."""
    return tuple(
        tuple(cat.index_of(g.without_edge(i, j)) for i, j in g.edge_pairs())
        for g in cat.graphs())


def _edge_rows_ok(cats):
    # A row has e(C) entries, each a class with e(C) - 1 edges: one range
    # check per row.
    cat, = cats
    starts = _starts(cat)

    def ok(i: int, row: tuple[int, ...]) -> bool:
        e = cat.edges[i].bit_count()
        return len(row) == e and (
            not row or starts[e - 1] <= min(row) and max(row) < starts[e])
    return ok


def compute_vertex_deletions(below: GraphCatalog, cat: GraphCatalog
                             ) -> tuple[tuple[int, ...], ...]:
    """The vertex-deletion map of cat into below, the (k-1) catalog, by
    one index_of lookup per vertex."""
    return tuple(
        tuple(below.index_of(g.delete_vertex(v)) for v in range(cat.k))
        for g in cat.graphs())


def _vertex_rows_ok(cats):
    # A row has k entries, each a (k-1)-class with e(C) - deg(v) edges.
    below, cat = cats
    starts = _starts(below)

    def ok(i: int, row: tuple[int, ...]) -> bool:
        e = cat.edges[i].bit_count()
        return len(row) == cat.k and all(
            starts[e - d] <= c < starts[e - d + 1]
            for c, d in zip(row, cat.graph(i).degrees()))
    return ok


# Per class: the class index after each edge deletion, in edge_pairs order.
edge_deletions = ClassMap(
    "edges", "edge-deletion maps", "# indsub edge-deletions v1",
    ks=range(1, MAX_HOM_VECTOR_K + 1),
    lowest=lambda k: k,
    compute=lambda cats: compute_edge_deletions(cats[-1]),
    check=_edge_rows_ok)
# Per class: the (k-1)-catalog index after each vertex deletion.
vertex_deletions = ClassMap(
    "vertices", "vertex-deletion maps", "# indsub vertex-deletions v1",
    ks=range(2, MAX_FLAG_K + 1),
    lowest=lambda k: k - 1,
    compute=lambda cats: compute_vertex_deletions(*cats),
    check=_vertex_rows_ok)
