"""Catalogs of isomorphism classes of k-vertex graphs, k <= 8.

The classes on k vertices come from one-vertex extensions of the (k-1)
catalog with canonical-form deduplication, starting from the 0-vertex
graph.  Neighbor masks in one orbit of the parent's automorphism group
give isomorphic extensions, so only one mask per orbit is considered.  The
orbits are walked with the generators of that group, each mapping a mask
through two 16-entry tables, the images of its low and high four bits.
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

Every file of the cache directory (catalogs, the maps below and
homcount's plan files) has one envelope, written by _write_cache and read
by _read_cache: the magic _CACHE_MAGIC, the sha256 of the file's inputs,
the sha256 of the body, then the body, marshal data.  A catalog's inputs
are _CATALOG_INPUTS, a format-version constant; a map's, the sha256 of
each catalog file its rows read; a plan file's, the planning code
(homcount).  One trust rule holds for every file: it is written with mode
0o600 through a temporary file and os.replace, so concurrent writers
never expose a partial file, and it is read only if the opened file is
the user's own and no group or other may write it (where the platform
has user ids).  A file whose inputs digest differs is stale: it counts as
missing and is replaced silently.  Any other failure is a FormatError: a
foreign owner or mode, a bad magic or checksum, body bytes marshal
rejects, or a decoded value of the wrong type or breaking a rule.  Such a
file is logged as a rebuild, and so is an OSError on reading; the value
is computed again and rewritten, and a failed write is logged.  So a
file of an older format is logged and rebuilt once.  Catalogs and maps
are written with marshal version 2, whose bytes depend on the value
alone: a value read back and written again gives the same bytes, so the
maps' catalog digests stay put.

A catalog stores only (edges, auts) in the builder's order: by edge
count, then by edge bitset.  On reading, the order, edge bitsets below
2^C(k,2), each automorphism count positive and dividing k!, one count
per class and the labelled total are checked.  The cache directory is
INDSUB_CACHE_DIR as it is at each call, or ~/.cache/indsub when that is
unset or empty; the memos are keyed by its value, so a call's catalogs
and maps all come from one directory.  A GraphCatalog keeps, in that
order, each class's edge bitset and automorphism count; its graph6 texts
are encoded on first use, and a SmallGraph is built per class only on
demand.

Beside k{k}.catalog the cache directory keeps per-class maps that do not
depend on any property.  Each is a ClassMap, declared once with the k it
covers and called as its own accessor, map(k): one tuple of ints per
class in catalog order.  They are
  k{k}.edges      edge_deletions, 1 <= k <= 7: the class index after each
                  edge deletion, in edge_pairs order; its inputs are
                  k{k}.catalog;
  k{k}.vertices   vertex_deletions, 2 <= k <= 6: the (k-1)-class index
                  after each vertex deletion; inputs k{k-1} and k{k};
  k{k}.quotients  hombasis.quotient_rows, 1 <= k <= 7: pairs of global
                  class id (catalog m's classes follow those of all
                  smaller catalogs) and Moebius sum; inputs k{1}..k{k}.
Loading checks the row count and that every row is a tuple of ints, then
checks the whole map in one call of ClassMap.check, by passes over all
rows at once: an edge row has e(C) entries, each a class with e(C) - 1
edges, so each block of rows with one edge count has one min and one max
to test; a vertex row has k entries, the one for v a class with e(C) -
deg(v) edges; a quotient row has even length, holds ids in range and
nonzero sums and ends with the class itself and sum 1, tested on all
rows flattened.  A map that fails is a FormatError naming the rule.

Catalogs and maps share one read-or-rebuild routine.  A map is written
on its first call, never by building or loading a catalog, and only
while every catalog file it reads exists.

GraphCatalog.index_of finds a graph's class, which the maps above and the
truth tables do for every lookup they compute.  A representative itself
(the truth tables' lookups) is found by its edge bitset.  For any other
graph, a catalog buckets its classes by canon.refinement_invariant on its
first such lookup; a graph whose invariant only one class has belongs to
that class, and only a graph whose invariant several classes share, or
none, is canonicalised.  Building or loading a catalog computes no
invariant.
"""

from __future__ import annotations

import marshal
import os
from bisect import bisect_left
from collections.abc import Callable
from functools import cached_property, lru_cache
from hashlib import sha256
from itertools import chain
from math import factorial
from operator import le, lt
from pathlib import Path
from typing import NamedTuple

from .canon import (
    _canonical_data,
    automorphism_generators,
    canon_key,
    refinement_invariant,
)
from .errors import FormatError, InternalConsistencyError
from .graphs import (
    Frozen,
    SmallGraph,
    _small_graph6,
    bits_of,
    pair_count,
    subset_sums,
)

MAX_CATALOG_K = 8
# The flag checks, the only readers of the vertex-deletion maps, stop here.
MAX_FLAG_K = 6
# Hom vectors, and with them the maps only they and the basis count read,
# stop here.
MAX_HOM_VECTOR_K = 7
CACHE_ENV_VAR = "INDSUB_CACHE_DIR"
# The first bytes of every cache file, and a catalog file's inputs: a
# change to what a catalog stores changes the constant.
_CACHE_MAGIC = b"\x89indsub\r\n"
_CATALOG_INPUTS = b"indsub catalog v2: (edges, auts)"


class GraphCatalog(Frozen):
    """The classes on k vertices in catalog order, as two parallel
    tuples: edge bitset and automorphism count.  graph(i) builds the i-th
    representative on its first call and keeps it."""
    k: int
    edges: tuple[int, ...]
    auts: tuple[int, ...]

    @cached_property
    def graph6(self) -> tuple[str, ...]:
        """Each class's graph6 text, encoded on first use."""
        return tuple(_small_graph6(self.k, e) for e in self.edges)

    @property
    def class_count(self) -> int:
        return len(self.edges)

    @property
    def labeled_total(self) -> int:
        kfact = factorial(self.k)
        return sum(kfact // aut for aut in self.auts)

    @cached_property
    def _graphs(self) -> dict:
        return {}

    def graph(self, i: int) -> SmallGraph:
        g = self._graphs.get(i)
        if g is None:
            g = self._graphs[i] = SmallGraph(self.k, self.edges[i])
        return g

    def graphs(self):
        """Every representative, in catalog order."""
        return map(self.graph, range(len(self.edges)))

    def index_of(self, g: SmallGraph) -> int:
        """Catalog index of g's class; KeyError when g is in none.  A
        representative's edge bitset is its canonical bitset, so g equal to
        one names its class at once; otherwise a class alone in its
        refinement-invariant bucket needs no canonical form."""
        i = self._index.get((g.n, g.edges))
        if i is not None:
            return i
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
        return {(self.k, edges): i for i, edges in enumerate(self.edges)}


def default_cache_dir() -> Path:
    return _cache_dir(os.environ.get(CACHE_ENV_VAR))


def _cache_dir(key: str | None) -> Path:
    # key: the value of INDSUB_CACHE_DIR, None when it is unset
    return Path(key) if key else Path.home() / ".cache" / "indsub"


def _build_classes(k: int, key: str | None) -> dict[int, int]:
    """Canonical edge-bitset -> aut for every class on k vertices: extend
    each (k-1)-vertex representative by one vertex, joined to one neighbor
    mask per orbit of the representative's automorphism group whose new
    vertex has the largest vertex key.  The base case is the 0-vertex
    graph."""
    if k == 1:
        parents = [(0, 1)]
    else:
        below = _catalog_cached(k - 1, key)
        parents = zip(below.edges, below.auts)
    top = k - 1
    found: dict[int, int] = {}
    for pedges, paut in parents:
        parent = SmallGraph(top, pedges)
        prows = parent.adj_rows()
        gens = automorphism_generators(parent) if paut > 1 else ()
        for mask in _key_maximal_masks(prows, gens):
            # The extension's rows: the new vertex k-1 joins the mask.
            rows = [r | (mask >> i & 1) << top for i, r in enumerate(prows)]
            rows.append(mask)
            _, edges, aut = _canonical_data(k, rows)
            found.setdefault(edges, aut)
    return found


def _key_maximal_masks(rows: list[int], gens):
    """In increasing order, the least mask of each orbit of the group that
    the parent automorphisms gens generate, among the masks whose new
    vertex has the largest vertex key in the extension of the parent with
    neighbor bitmasks rows by a vertex joined to the mask.  A vertex's key
    is its degree, then the sum of its neighbors' degrees; ties with the
    new vertex are allowed.

    Degrees settle most masks: a parent vertex beats the new one when its
    degree exceeds the mask's size, or equals it and the vertex is in the
    mask.  Neighbor-degree sums are compared only with the parent vertices
    whose degree in the extension equals the mask's size.  Both tests are
    isomorphism invariants, so the masks that pass the degree test make up
    whole orbits, and the sums are compared once per orbit, on its least
    mask."""
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
    masks = [mask for mask in range(1 << m)
             if not (above[d := mask.bit_count()] or exact[d] & mask)]
    if gens:
        masks = _orbit_representatives(masks, gens)
    for mask in masks:
        d = mask.bit_count()
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


def _orbit_representatives(masks, gens) -> list[int]:
    """The least mask in each orbit, in increasing order, of the group that
    the vertex permutations gens generate, for increasing vertex bitmasks
    masks that make up whole orbits of that group.  The permutations move
    at most 8 vertices, so each one maps a mask through two 16-entry
    subset tables (subset_sums), the images of its low and its high four
    bits."""
    tables = []
    for gen in gens:
        image = [1 << u for u in gen] + [0] * (8 - len(gen))
        tables.append((subset_sums(image[:4]), subset_sums(image[4:])))
    seen = set()
    reps = []
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            x = stack.pop()
            x_lo = x & 15
            x_hi = x >> 4
            for lo, hi in tables:
                y = lo[x_lo] | hi[x_hi]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return reps


@lru_cache(maxsize=MAX_CATALOG_K)
def _catalog_cached(k: int, key: str | None) -> GraphCatalog:
    return _read_or_rebuild(
        "catalog", k, _cache_dir(key) / f"k{k}.catalog", _CATALOG_INPUTS,
        lambda value: _checked_catalog(k, value),
        lambda: _new_catalog(k, key), lambda cat: (cat.edges, cat.auts))


def _new_catalog(k: int, key: str | None) -> GraphCatalog:
    classes = _build_classes(k, key)
    edges = tuple(sorted(classes, key=lambda e: (e.bit_count(), e)))
    cat = GraphCatalog(k, edges, tuple(map(classes.__getitem__, edges)))
    if cat.labeled_total != 1 << pair_count(k):
        raise InternalConsistencyError(
            f"catalog k={k}: labeled copies sum to {cat.labeled_total}, "
            f"expected 2^{pair_count(k)}")
    return cat


def _checked_catalog(k: int, value) -> GraphCatalog:
    """The k-vertex catalog a catalog file stores as value, (edges, auts),
    or FormatError naming what fails: the types, one automorphism count
    per class, catalog order, an edge bitset out of range, an
    automorphism count that is not a positive divisor of k!, or the
    labelled total."""
    if type(value) is not tuple or list(map(type, value)) != [tuple] * 2:
        raise FormatError("not a pair of tuples")
    edges, auts = value
    if set(map(type, edges + auts)) != {int}:
        raise FormatError("not tuples of ints")
    if len(edges) != len(auts):
        raise FormatError("not one automorphism count per class")
    # Truth tables and the deletion maps index classes by this order.
    keys = [e.bit_count() << 32 | e for e in edges]
    if not all(map(lt, keys, keys[1:])):
        raise FormatError("classes out of catalog order")
    if min(edges) < 0 or max(edges) >> pair_count(k):
        raise FormatError("an edge bitset out of range")
    kfact = factorial(k)
    if any(aut <= 0 or kfact % aut for aut in set(auts)):
        raise FormatError("an automorphism count that does not divide k!")
    cat = GraphCatalog(k, edges, auts)
    if cat.labeled_total != 1 << pair_count(k):
        raise FormatError("labeled total mismatch")
    return cat


def _read_or_rebuild(what: str, k: int, path: Path | None, inputs: bytes,
                     decode: Callable, build: Callable, encode: Callable):
    """decode(value) of the cache file at path (_load); when that gives
    nothing, build(), then the file written as encode(built) (_save).
    path None means there is no file to read or write."""
    value = None if path is None else _load(what, k, path, inputs, decode)
    if value is None:
        value = build()
        if path is not None:
            _save(what, encode(value), path, inputs)
    return value


def _load(what: str, k: int, path: Path, inputs: bytes, decode: Callable):
    """decode(_read_cache(path, inputs)), or None when the file is
    missing or stale, or when reading or decode fails (a FormatError or an
    OSError), which is logged as a rebuild."""
    try:
        return decode(_read_cache(path, inputs))
    except (FileNotFoundError, _Stale):
        return None
    except (FormatError, OSError) as exc:
        _warn("rebuilding %s k=%d: %s: %s", what, k, path, exc)
        return None


def _save(what: str, value, path: Path, inputs: bytes,
          version: int = 2) -> None:
    """_write_cache(value, path, inputs, version); a failed write is
    logged and changes no result."""
    try:
        _write_cache(value, path, inputs, version)
    except OSError as exc:
        _warn("could not write %s %s: %s", what, path, exc)


def _warn(message: str, *args) -> None:
    """Log a warning about a file of the cache directory: a rebuild or a
    failed write.  logging is imported only when a warning fires, which
    keeps it out of every run that reads or writes its files cleanly."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


def build_catalog(k: int) -> GraphCatalog:
    if not 1 <= k <= MAX_CATALOG_K:
        raise ValueError(f"catalog supports 1 <= k <= {MAX_CATALOG_K}")
    return _catalog_cached(k, os.environ.get(CACHE_ENV_VAR))


def _write_cache(value, path: Path, inputs: bytes, version: int = 2) -> None:
    """Write the cache file at path: _CACHE_MAGIC, the sha256 of inputs,
    the sha256 of the body, then the body, value as marshal data of the
    given version.  Version 2 writes no reference flags, which the later
    versions set from reference counts, so its bytes depend on the value
    alone.  The file is written with mode 0o600 through a temporary file
    unique to this writer, then renamed into place, so concurrent
    writers never expose a partial file."""
    body = marshal.dumps(value, version)
    data = b"".join((_CACHE_MAGIC, sha256(inputs).digest(),
                     sha256(body).digest(), body))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600),
                  "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Stale(FormatError):
    """A cache file written from other inputs: it counts as missing."""


def _read_cache(path: Path, inputs: bytes):
    """The value the cache file at path holds.  FormatError unless the
    opened file is the user's own and writable by no one else (where the
    platform has user ids), starts with _CACHE_MAGIC and is whole; then
    _Stale unless the sha256 of inputs follows; then FormatError unless
    the sha256 of the body follows and marshal loads the body."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if hasattr(os, "getuid") and (st.st_uid != os.getuid()
                                      or st.st_mode & 0o022):
            raise FormatError("not the user's own file, or writable by "
                              "others")
        data = memoryview(fh.read())
    head = len(_CACHE_MAGIC)
    if data[:head] != _CACHE_MAGIC:
        raise FormatError("bad magic number")
    if len(data) < head + 64:
        raise FormatError("truncated")
    if data[head:head + 32] != sha256(inputs).digest():
        raise _Stale("written from other inputs")
    body = data[head + 64:]
    if sha256(body).digest() != data[head + 32:head + 64]:
        raise FormatError("checksum mismatch")
    try:
        return marshal.loads(body)
    except (EOFError, ValueError, TypeError) as exc:
        raise FormatError("body is not marshal data") from exc


class _ClassMap(NamedTuple):
    suffix: str
    what: str                 # in messages
    ks: range
    lowest: Callable[[int], int]
    compute: Callable
    check: Callable


class ClassMap(_ClassMap):
    """A property-independent map with one row of integers per class of
    the k-vertex catalog, for each k in ks, kept beside that catalog as
    k{k}.{suffix}.  The rows read the catalogs lowest(k)..k, which
    compute(cats) gets in that order; check(cats) gives the load check of
    the whole map, rows -> the rule they break, or None when they pass.
    Declaring a map adds it to CLASS_MAPS, and calling it gives its
    rows."""

    __slots__ = ()

    # _make and _replace keep namedtuple's tuple.__new__: building through
    # this __new__ would register a second map in CLASS_MAPS.
    def __new__(cls, *fields, **named) -> "ClassMap":
        self = super().__new__(cls, *fields, **named)
        CLASS_MAPS.append(self)
        return self

    def __call__(self, k: int) -> tuple[tuple[int, ...], ...]:
        """The rows for the k-vertex catalog, read from their file in the
        cache directory as INDSUB_CACHE_DIR names it now, or computed and
        written there when that file is missing or invalid."""
        if k not in self.ks:
            raise ValueError(
                f"{self.what} cover {self.ks[0]} <= k <= {self.ks[-1]}")
        return _class_map_cached(self, k, os.environ.get(CACHE_ENV_VAR))


# Every declared ClassMap, in the order of declaration.  Importing indsub
# imports each module that declares one.
CLASS_MAPS: list[ClassMap] = []


# Room for one cache directory's maps: three maps, none past MAX_HOM_VECTOR_K.
@lru_cache(maxsize=3 * MAX_HOM_VECTOR_K)
def _class_map_cached(kind: ClassMap, k: int, key: str | None
                      ) -> tuple[tuple[int, ...], ...]:
    cats = tuple(_catalog_cached(m, key) for m in range(kind.lowest(k), k + 1))
    directory = _cache_dir(key)
    try:
        inputs = _map_inputs(cats, directory)
    except OSError:
        inputs = None        # no catalog file for the map to read
    return _read_or_rebuild(
        kind.what, k,
        None if inputs is None else directory / f"k{k}.{kind.suffix}",
        inputs,
        lambda rows: _checked_rows(rows, cats[-1].class_count,
                                   kind.check(cats)),
        lambda: kind.compute(cats), lambda rows: rows)


def _map_inputs(cats, directory: Path) -> bytes:
    """A map file's inputs: the sha256 of each catalog file the rows read;
    OSError when one of those files cannot be read."""
    return b"".join(
        sha256((directory / f"k{c.k}.catalog").read_bytes()).digest()
        for c in cats)


def _checked_rows(rows, count: int, check) -> tuple[tuple[int, ...], ...]:
    """rows, a map file's value, or FormatError naming what fails: count
    tuples of ints, or the rule of check(rows) that the rows break."""
    if type(rows) is not tuple or len(rows) != count \
            or set(map(type, rows)) - {tuple} \
            or set(map(type, chain.from_iterable(rows))) - {int}:
        raise FormatError(f"not {count} rows of ints")
    rule = check(rows)
    if rule is not None:
        raise FormatError(f"rows break the rule: {rule}")
    return rows


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


def _edge_map_check(cats):
    # Rows come in order of edge count: each block of rows for classes
    # with e edges has e entries per row, all among the classes with
    # e - 1 edges, which one min and one max over the block check.
    cat, = cats
    counts = list(map(int.bit_count, cat.edges))
    starts = _starts(cat)

    def check(rows):
        if list(map(len, rows)) != counts:
            return "an edge row has e(C) entries"
        for e in range(1, len(starts) - 1):
            block = rows[starts[e]:starts[e + 1]]
            if block and not (
                    starts[e - 1] <= min(chain.from_iterable(block))
                    and max(chain.from_iterable(block)) < starts[e]):
                return "an edge row's entries are classes with e(C) - 1 edges"
        return None
    return check


def compute_vertex_deletions(below: GraphCatalog, cat: GraphCatalog
                             ) -> tuple[tuple[int, ...], ...]:
    """The vertex-deletion map of cat into below, the (k-1) catalog, by
    one index_of lookup per vertex."""
    return tuple(
        tuple(below.index_of(g.delete_vertex(v)) for v in range(cat.k))
        for g in cat.graphs())


def _vertex_map_check(cats):
    # Entry v of row C lies among the (k-1)-classes with e(C) - deg(v)
    # edges: bounds per entry, compared with the flattened rows.
    below, cat = cats
    starts = _starts(below)
    left = [g.edge_count - d for g in cat.graphs() for d in g.degrees()]
    lows = list(map(starts.__getitem__, left))
    highs = list(map(starts[1:].__getitem__, left))

    def check(rows):
        if set(map(len, rows)) != {cat.k}:
            return "a vertex row has k entries"
        flat = list(chain.from_iterable(rows))
        if not (all(map(le, lows, flat)) and all(map(lt, flat, highs))):
            return ("a vertex row's entry for v is a class with "
                    "e(C) - deg(v) edges")
        return None
    return check


# Per class: the class index after each edge deletion, in edge_pairs order.
edge_deletions = ClassMap(
    "edges", "edge-deletion maps",
    ks=range(1, MAX_HOM_VECTOR_K + 1),
    lowest=lambda k: k,
    compute=lambda cats: compute_edge_deletions(cats[-1]),
    check=_edge_map_check)
# Per class: the (k-1)-catalog index after each vertex deletion.
vertex_deletions = ClassMap(
    "vertices", "vertex-deletion maps",
    ks=range(2, MAX_FLAG_K + 1),
    lowest=lambda k: k - 1,
    compute=lambda cats: compute_vertex_deletions(*cats),
    check=_vertex_map_check)
