"""Bitset-backed graph types shared by every pipeline stage.

Small pattern graphs are simple and store their edge set as one integer
over the C(n,2) vertex pairs in lexicographic (i,j), i < j order, which
pair_bits, the one builder of such an integer from neighbor rows, sets.
Reading it back (edge_pairs, adj_rows) takes one lookup per byte of the
integer, in per-n tables of each byte value's pairs and of its neighbor
rows packed 16 bits per vertex.
Host graphs keep sorted neighbor tuples, which _neighbor_table, the one rule
of a valid host, must rebuild unchanged from their edges, and neighbor bitmasks.

Two text forms are supported: graph6, and a plain edge list whose first
line is "n m" followed by one "u v" pair per line (0-indexed).  This
module owns graph6.  User and host text is read by one walk over the set
bits of the body, which ignores padding bits; the catalog cache is read
strictly through per-position character tables (_graph6_line_tables).
Small graphs are written through per-byte tables, hosts bit by bit.
subset_sums builds these tables and every other per-bit lookup table.
"""

from __future__ import annotations

import re
import sys
from functools import cached_property, lru_cache
from itertools import combinations
from math import isqrt
from operator import getitem
from typing import NamedTuple

from .errors import FormatError

MAX_SMALL_VERTICES = 16
# The largest n that a 4-byte graph6 header can declare; edge-list headers
# are held to the same bound, since a host allocates per declared vertex.
MAX_HOST_VERTICES = 258047


@lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """All vertex pairs of an n-vertex graph in lexicographic order."""
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _pair_index_map(n: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(pair_table(n))}


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    try:
        return _pair_index_map(n)[(i, j)]
    except KeyError:
        raise ValueError(
            f"({i},{j}) is not a pair of distinct vertices of 0..{n - 1}") from None


def pair_bits(rows, masks) -> int:
    """Edge bitset over pair_table(len(rows)) with pair (a, b) set exactly
    when rows[a] & masks[b]: rows[a] is the neighbor mask of the vertex
    labelled a, masks[b] the bit (or block of bits) of the one labelled b."""
    edges = 0
    bit = 1
    for a, b in pair_table(len(rows)):
        if rows[a] & masks[b]:
            edges |= bit
        bit <<= 1
    return edges


def subset_sums(weights, start=0) -> list:
    """The subset table of weights: entry d is start plus the weights of
    the set bits of d, lowest bit first, so len(weights) bits index it.
    Int weights must have pairwise disjoint bits, so that + acts as |;
    tuple weights (with start ()) concatenate in bit order."""
    table = [start]
    for w in weights:
        table += [t + w for t in table]
    return table


@lru_cache(maxsize=None)
def _edge_byte_tables(n: int) -> tuple[tuple, tuple]:
    """The decoders of an n-vertex edge bitset, n <= MAX_SMALL_VERTICES:
    per byte of the bitset, and per value of that byte, the neighbor rows
    its pairs set, packed 16 bits per vertex (the row of v is bits 16v to
    16v + 15), and its pairs in pair_table order.  The last byte's tables
    cover only the pairs it holds; n <= 1 has no byte."""
    pairs = pair_table(n)
    chunks = [pairs[b:b + 8] for b in range(0, len(pairs), 8)]
    rows = [subset_sums([1 << 16 * i + j | 1 << 16 * j + i for i, j in chunk])
            for chunk in chunks]
    listed = [subset_sums([(pair,) for pair in chunk], ()) for chunk in chunks]
    return tuple(map(tuple, rows)), tuple(map(tuple, listed))


@lru_cache(maxsize=1 << MAX_SMALL_VERTICES)
def bits_of(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending.  The cache has room for
    every vertex mask of a SmallGraph; edge bitsets, whose bits are vertex
    pairs, are not passed here."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def reach(rows, start: int, within: int) -> int:
    """The vertices of the mask `within` that a path inside `within` joins
    to a vertex of the mask `start`, as a mask; rows[v] is the neighbor
    bitmask of v.  Vertices of `start` outside `within` are ignored."""
    seen = frontier = start & within
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= rows[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def two_colouring(neighbours) -> list[int] | None:
    """One colour, 0 or 1, per vertex such that every edge joins the two
    colours, with each component's least vertex coloured 0; None when the
    graph has an odd cycle.  neighbours[v] holds v's neighbours in any
    iterable, such as the tuple bits_of(row)."""
    colour = [-1] * len(neighbours)
    for s in range(len(neighbours)):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in neighbours[u]:
                if colour[v] < 0:
                    colour[v] = colour[u] ^ 1
                    stack.append(v)
                elif colour[v] == colour[u]:
                    return None
    return colour


class Frozen:
    """Base of the immutable classes that memoise values derived from their
    fields with functools.cached_property, which a NamedTuple cannot hold.
    The fields are the names annotated in the subclass body, in order, and
    __init__ takes their values in that order; assigning or deleting any
    attribute afterwards raises AttributeError.  Instances of one class are
    equal when their field tuples are, and hash as that tuple, as frozen
    dataclasses do."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class _SmallGraph(NamedTuple):
    n: int
    edges: int = 0


class SmallGraph(_SmallGraph):
    """A simple graph on at most 16 vertices; `edges` indexes
    pair_table(n).  A NamedTuple, so it equals and hashes as (n, edges)."""

    __slots__ = ()
    # Not a field: read only by bench/tracer.py's count_hom hook; goes
    # with ROADMAP item 1.
    loops = 0

    def __new__(cls, n: int, edges: int = 0) -> "SmallGraph":
        if not 0 <= n <= MAX_SMALL_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_SMALL_VERTICES}")
        if not 0 <= edges < (1 << pair_count(n)):
            raise ValueError("edge bitset out of range")
        return tuple.__new__(cls, (n, edges))

    @classmethod
    def _make(cls, iterable) -> "SmallGraph":
        # namedtuple's _make, which _replace calls, builds through
        # tuple.__new__; this one runs the checks of __new__.
        return cls(*iterable)

    @classmethod
    def from_edges(cls, n: int, pairs) -> "SmallGraph":
        # Checked before pair_index builds its table of all C(n, 2) pairs.
        if not 0 <= n <= MAX_SMALL_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_SMALL_VERTICES}")
        mask = 0
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            mask |= 1 << pair_index(n, u, v)
        return cls(n, mask)

    @classmethod
    def complete(cls, n: int) -> "SmallGraph":
        return cls(n, (1 << pair_count(n)) - 1)

    @classmethod
    def cycle(cls, n: int) -> "SmallGraph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "SmallGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "SmallGraph":
        return cls.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.edges >> pair_index(self.n, i, j) & 1)

    def edge_pairs(self) -> list[tuple[int, int]]:
        """The edges as pairs (i, j), i < j, in pair_table order, one table
        lookup per byte of the edge bitset."""
        _, tables = _edge_byte_tables(self.n)
        pairs = []
        for table, byte in zip(tables,
                               self.edges.to_bytes(len(tables), "little")):
            pairs += table[byte]
        return pairs

    def adj_rows(self) -> list[int]:
        """Neighbor bitmask per vertex, one table lookup per byte of the
        edge bitset."""
        tables, _ = _edge_byte_tables(self.n)
        packed = sum(map(getitem, tables,
                         self.edges.to_bytes(len(tables), "little")))
        return memoryview(packed.to_bytes(2 * self.n, sys.byteorder)
                          ).cast("H").tolist()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj_rows()]

    def with_edge(self, i: int, j: int) -> "SmallGraph":
        return SmallGraph(self.n, self.edges | 1 << pair_index(self.n, i, j))

    def without_edge(self, i: int, j: int) -> "SmallGraph":
        return SmallGraph(self.n, self.edges & ~(1 << pair_index(self.n, i, j)))

    def complement(self) -> "SmallGraph":
        return SmallGraph(self.n, self.edges ^ ((1 << pair_count(self.n)) - 1))

    def relabel(self, perm) -> "SmallGraph":
        """Rename vertex v to perm[v]; perm is a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.n - 1}")
        return self._on(sorted(range(self.n), key=perm.__getitem__))

    def induced(self, vertices) -> "SmallGraph":
        """Induced subgraph on distinct vertices, relabeled in sorted order."""
        vs = sorted(vertices)
        if len(set(vs)) < len(vs) or not set(vs) <= set(range(self.n)):
            raise ValueError(f"{vs} are not distinct vertices of 0..{self.n - 1}")
        return self._on(vs)

    def _on(self, vs) -> "SmallGraph":
        """The graph induced on vertices vs, vs[i] labelled i."""
        rows = self.adj_rows()
        return SmallGraph(len(vs), pair_bits([rows[v] for v in vs],
                                             [1 << v for v in vs]))

    def delete_vertex(self, v: int) -> "SmallGraph":
        return self.induced([u for u in range(self.n) if u != v])

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return reach(self.adj_rows(), 1, full) == full

    def components(self) -> list[list[int]]:
        rows = self.adj_rows()
        unseen = (1 << self.n) - 1
        comps = []
        while unseen:
            comp = reach(rows, unseen & -unseen, unseen)
            comps.append(list(bits_of(comp)))
            unseen &= ~comp
        return comps

    def to_graph6(self) -> str:
        return _small_graph6(self.n, self.edges)

    @classmethod
    def from_graph6(cls, text: str) -> "SmallGraph":
        """FormatError for malformed graph6 text, ValueError for a graph
        on more than MAX_SMALL_VERTICES vertices."""
        n, body = _graph6_body(text)
        if n > MAX_SMALL_VERTICES:
            raise ValueError(f"graph6 graph has {n} > {MAX_SMALL_VERTICES} vertices")
        return cls.from_edges(n, _graph6_pairs(n, body))

    def to_edge_list_text(self) -> str:
        lines = [f"{self.n} {self.edge_count}"]
        lines += [f"{u} {v}" for u, v in self.edge_pairs()]
        return "\n".join(lines) + "\n"


def _neighbor_table(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    """The one rule of a valid host: the sorted, repeat-free neighbor lists
    of the loop-free edges pairs on 0..n-1, each edge listed at both ends."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop {u}")
        if not (0 <= u < n and 0 <= v < n):
            w = v if 0 <= u < n else u
            raise ValueError(f"edge ({u},{v}): neighbor {w} out of range 0..{n - 1}")
        sets[u].add(v)
        sets[v].add(u)
    return tuple(tuple(sorted(s)) for s in sets)


class HostGraph(Frozen):
    """Host-side graph: a tuple of neighbor tuples, valid exactly when
    _neighbor_table rebuilds it unchanged from its own edge pairs."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, neighbors: tuple[tuple[int, ...], ...]):
        if n < 0 or len(neighbors) != n:
            raise ValueError("neighbor table size mismatch")
        super().__init__(n, neighbors)
        if _neighbor_table(n, self.edge_pairs()) != neighbors:
            raise ValueError("neighbor lists not sorted, unique and symmetric")

    @classmethod
    def from_edges(cls, n: int, pairs) -> "HostGraph":
        return cls(n, _neighbor_table(n, pairs))

    @classmethod
    def from_small(cls, g: SmallGraph) -> "HostGraph":
        return cls.from_edges(g.n, g.edge_pairs())

    @classmethod
    def from_graph6(cls, text: str) -> "HostGraph":
        n, pairs = _decode_graph6(text)
        return cls.from_edges(n, pairs)

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v in nbrs) for nbrs in self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.neighbors) // 2

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors[u] if u < v]

    def delete_vertices(self, drop) -> "HostGraph":
        dropped = set(drop)
        keep = [v for v in range(self.n) if v not in dropped]
        idx = {v: i for i, v in enumerate(keep)}
        pairs = [(idx[u], idx[v]) for u, v in self.edge_pairs()
                 if u not in dropped and v not in dropped]
        return HostGraph.from_edges(len(keep), pairs)

    def to_graph6(self) -> str:
        adj = self.adj_bits
        return _encode_graph6(self.n, [adj[j] >> i & 1
                                       for j in range(1, self.n)
                                       for i in range(j)])

    def to_edge_list_text(self) -> str:
        lines = [f"{self.n} {self.edge_count}"]
        lines += [f"{u} {v}" for u, v in self.edge_pairs()]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- graph6

@lru_cache(maxsize=None)
def _graph6_order(n: int) -> tuple[int, ...]:
    """Pair indices in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    return tuple(pair_index(n, i, j) for j in range(1, n) for i in range(j))


@lru_cache(maxsize=None)
def _graph6_byte_tables(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The graph6 text of an n-vertex graph, n <= MAX_SMALL_VERTICES, is
    read as one big-endian integer of character codes.  Returned: that
    integer for the empty graph, and per byte of the edge bitset the body
    bits that each value of the byte sets.  The mirror of
    _graph6_line_tables."""
    order = _graph6_order(n)
    size = (len(order) + 5) // 6
    # The pair at graph6 position t is bit 5 - t % 6 of body character
    # t // 6; every character carries the offset 63.
    weights = [0] * len(order)
    for t, b in enumerate(order):
        weights[b] = 1 << 8 * (size - 1 - t // 6) + 5 - t % 6
    empty = int.from_bytes(bytes([n + 63]) + b"?" * size, "big")
    return empty, tuple(tuple(subset_sums(weights[b:b + 8]))
                        for b in range(0, len(order), 8))


def _small_graph6(n: int, edges: int) -> str:
    """graph6 text of the n-vertex graph with edge bitset edges, one table
    lookup per byte of the bitset."""
    empty, tables = _graph6_byte_tables(n)
    size = (pair_count(n) + 5) // 6 + 1
    text = sum(map(tuple.__getitem__, tables,
                   edges.to_bytes(len(tables), "little")), empty)
    return text.to_bytes(size, "big").decode("ascii")


def _encode_graph6(n: int, bits: list[int]) -> str:
    """graph6 text of n vertices whose pair bits come in graph6 order; the
    host writer, since a host's bitset of C(n, 2) pairs is not stored."""
    if n <= 62:
        head = chr(n + 63)
    elif n <= MAX_HOST_VERTICES:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this graph6 writer")
    while len(bits) % 6:
        bits.append(0)
    chunks = []
    for t in range(0, len(bits), 6):
        val = 0
        for b in bits[t:t + 6]:
            val = val << 1 | b
        chunks.append(chr(val + 63))
    return head + "".join(chunks)


@lru_cache(maxsize=None)
def _graph6_line_tables(n: int) -> tuple[dict[str, int], ...]:
    """The strict reader of n-vertex graph6 text, n <= 62: per character
    position, the edge bitset that each character allowed there encodes.
    Position 0 allows only the header character; a body character whose
    padding bits past the last pair are set is allowed nowhere."""
    order = _graph6_order(n)
    tables = [{chr(n + 63): 0}]
    for t in range(0, len(order), 6):
        # The character's bit 5 - i carries the pair at position t + i.
        weights = [1 << b for b in order[t:t + 6]]
        pad = (1 << 6 - len(weights)) - 1
        table = subset_sums([0] * (6 - len(weights)) + weights[::-1])
        tables.append({chr(d + 63): e for d, e in enumerate(table)
                       if not d & pad})
    return tuple(tables)


# graph6 character -> its 6-bit value, for the characters "?" to "~"
_GRAPH6_VALUES = bytes((c - 63) % 256 for c in range(256))


def _graph6_body(text: str) -> tuple[int, bytes]:
    """Vertex count and 6-bit body values of graph6 text, after the
    header, character and body-length checks."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string")
    if not s.isascii() or min(s) < "?" or max(s) > "~":
        raise FormatError(f"invalid graph6 characters in {s!r}")
    data = s.encode("ascii").translate(_GRAPH6_VALUES)
    if data[0] == 63:
        if len(data) < 4:
            raise FormatError("truncated graph6 size")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = (pair_count(n) + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body length {len(body)}, expected {need}")
    return n, body


def _decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge pairs of graph6 text."""
    n, body = _graph6_body(text)
    return n, _graph6_pairs(n, body)


def _graph6_pairs(n: int, body: bytes) -> list[tuple[int, int]]:
    """Edge pairs (i, j), i < j, of an n-vertex graph6 body, in the
    format's pair order (by j, then i).  Only nonzero body characters are
    read, so a sparse host costs a step per edge, not per pair: the pair
    at bit t is (t - j(j-1)/2, j) for the largest j with j(j-1)/2 <= t."""
    total = pair_count(n)
    pairs = []
    for c, d in enumerate(body):
        if not d:
            continue
        for b in range(6):
            if d >> (5 - b) & 1:
                t = 6 * c + b
                if t >= total:      # padding bits encode nothing
                    break
                j = (1 + isqrt(8 * t + 1)) >> 1
                pairs.append((t - (j * (j - 1) >> 1), j))
    return pairs


# ------------------------------------------------------------- file text

_INT_TOKEN = re.compile(r"-?\d+")


def _int_tokens(line: str) -> list[int] | None:
    """The line's whitespace-separated tokens as integers, or None when
    one is not an integer that int() converts."""
    toks = line.split()
    if not all(_INT_TOKEN.fullmatch(tok) for tok in toks):
        return None
    try:
        return [int(tok) for tok in toks]
    except ValueError:      # more digits than int() converts
        return None


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse a single graph, either graph6 or "n m" edge-list text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("no graph data found")
    head = _int_tokens(lines[0])
    if head is not None:
        if len(head) not in (1, 2):
            raise FormatError(f"bad edge-list header {lines[0]!r}")
        n = head[0]
        if n < 0:
            raise FormatError("negative vertex count")
        if n > MAX_HOST_VERTICES:
            raise FormatError(
                f"vertex count {n} exceeds the limit {MAX_HOST_VERTICES}")
        pairs = []
        for ln in lines[1:]:
            uv = _int_tokens(ln)
            if uv is None or len(uv) != 2:
                raise FormatError(f"bad edge line {ln!r}")
            u, v = uv
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"edge ({u},{v}) invalid for n={n}")
            pairs.append((u, v))
        if len(head) == 2 and head[1] != len(set(frozenset(p) for p in pairs)):
            raise FormatError(f"edge count mismatch: header says {head[1]}")
        return n, pairs
    if len(lines) != 1:
        raise FormatError("expected a single graph6 line")
    return _decode_graph6(lines[0])


def _read_text(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_host_graph(path) -> HostGraph:
    text = _read_text(path)
    try:
        n, pairs = parse_graph_text(text)
        return HostGraph.from_edges(n, pairs)
    except (FormatError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_small_graph(path) -> SmallGraph:
    text = _read_text(path)
    try:
        n, pairs = parse_graph_text(text)
        return SmallGraph.from_edges(n, pairs)
    except (FormatError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_graph_list(path) -> list[SmallGraph]:
    """Read a list of small graphs, one graph6 string per line."""
    out = []
    for ln in _read_text(path).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            out.append(SmallGraph.from_graph6(ln))
        except (FormatError, ValueError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if not out:
        raise FormatError(f"{path}: no graphs found")
    return out
