"""Bitset-backed graph types shared by every pipeline stage.

Small pattern graphs store their edge set as one integer over the C(n,2)
vertex pairs in lexicographic (i,j), i < j order; a second integer can mark
loops, which only arise from quotient operations.  Host graphs keep sorted
adjacency lists plus per-vertex neighbor bitmasks.

Two text forms are supported: graph6, and a plain edge list whose first
line is "n m" followed by one "u v" pair per line (0-indexed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import isqrt

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
    return _pair_index_map(n)[(i, j)]


def bits_of(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


@dataclass(frozen=True)
class SmallGraph:
    """A graph on at most 16 vertices; `edges` indexes pair_table(n).

    `loops` marks vertices carrying a self-loop.  Plain graphs (inputs,
    catalog members) always have loops == 0; quotients may not.
    """

    n: int
    edges: int = 0
    loops: int = 0

    def __post_init__(self):
        if not 0 <= self.n <= MAX_SMALL_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_SMALL_VERTICES}")
        if not 0 <= self.edges < (1 << pair_count(self.n)):
            raise ValueError("edge bitset out of range")
        if not 0 <= self.loops < (1 << max(self.n, 1)):
            raise ValueError("loop bitset out of range")

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
    def empty(cls, n: int) -> "SmallGraph":
        return cls(n, 0)

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
        pt = pair_table(self.n)
        return [pt[b] for b in bits_of(self.edges)]

    def adj_rows(self) -> list[int]:
        """Neighbor bitmask per vertex (loops not included)."""
        rows = [0] * self.n
        pt = pair_table(self.n)
        mask = self.edges
        while mask:
            low = mask & -mask
            i, j = pt[low.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            mask ^= low
        return rows

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj_rows()]

    def with_edge(self, i: int, j: int) -> "SmallGraph":
        return SmallGraph(self.n, self.edges | 1 << pair_index(self.n, i, j), self.loops)

    def without_edge(self, i: int, j: int) -> "SmallGraph":
        return SmallGraph(self.n, self.edges & ~(1 << pair_index(self.n, i, j)), self.loops)

    def complement(self) -> "SmallGraph":
        if self.loops:
            raise ValueError("complement undefined for loop-marked graphs")
        return SmallGraph(self.n, self.edges ^ ((1 << pair_count(self.n)) - 1))

    def relabel(self, perm) -> "SmallGraph":
        """Rename vertex v to perm[v]."""
        n = self.n
        edges = 0
        for i, j in self.edge_pairs():
            edges |= 1 << pair_index(n, perm[i], perm[j])
        loops = 0
        for v in bits_of(self.loops):
            loops |= 1 << perm[v]
        return SmallGraph(n, edges, loops)

    def induced(self, vertices) -> "SmallGraph":
        """Induced subgraph on the given vertices, relabeled in sorted order."""
        vs = sorted(vertices)
        m = len(vs)
        idx = {v: i for i, v in enumerate(vs)}
        edges = 0
        for a, b in combinations(vs, 2):
            if self.has_edge(a, b):
                edges |= 1 << pair_index(m, idx[a], idx[b])
        loops = 0
        for v in vs:
            if self.loops >> v & 1:
                loops |= 1 << idx[v]
        return SmallGraph(m, edges, loops)

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
        if self.loops:
            raise ValueError("graph6 cannot encode loops")
        e = self.edges
        return _encode_graph6(self.n,
                              [e >> b & 1 for b in _graph6_order(self.n)])

    @classmethod
    def from_graph6(cls, text: str) -> "SmallGraph":
        """FormatError for malformed graph6 text, ValueError for a graph
        on more than MAX_SMALL_VERTICES vertices."""
        n, body = _graph6_body(text)
        if n > MAX_SMALL_VERTICES:
            raise ValueError(f"graph6 graph has {n} > {MAX_SMALL_VERTICES} vertices")
        edges = 0
        for table, d in zip(_graph6_chunk_edges(n), body):
            edges |= table[d]
        return cls(n, edges)

    def to_edge_list_text(self) -> str:
        lines = [f"{self.n} {self.edge_count}"]
        lines += [f"{u} {v}" for u, v in self.edge_pairs()]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HostGraph:
    """Host-side graph: sorted neighbor lists; loop-free, no duplicates."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.neighbors) != self.n:
            raise ValueError("neighbor table size mismatch")
        for u, nbrs in enumerate(self.neighbors):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbors of {u} not sorted/unique")
            for v in nbrs:
                if v == u:
                    raise ValueError(f"loop at {u}")
                if not 0 <= v < self.n:
                    raise ValueError(f"neighbor {v} out of range")
                if u not in self.neighbors[v]:
                    raise ValueError(f"edge ({u},{v}) not symmetric")

    @classmethod
    def from_edges(cls, n: int, pairs) -> "HostGraph":
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            sets[u].add(v)
            sets[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in sets))

    @classmethod
    def from_small(cls, g: SmallGraph) -> "HostGraph":
        if g.loops:
            raise ValueError("host graphs are loop-free")
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


def _encode_graph6(n: int, bits: list[int]) -> str:
    """graph6 text of n vertices whose pair bits come in graph6 order."""
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
def _graph6_chunk_edges(n: int) -> tuple[tuple[int, ...], ...]:
    """Per graph6 body character: the edge bitset that each of its 64
    values encodes.  Padding bits past the last pair encode nothing."""
    order = _graph6_order(n)
    tables = []
    for t in range(0, len(order), 6):
        # The character's bit 5 - i carries the pair at position t + i.
        weights = [1 << b for b in order[t:t + 6]]
        weights += [0] * (6 - len(weights))
        table = [0] * 64
        for d in range(1, 64):
            low = d & -d
            table[d] = table[d ^ low] | weights[6 - low.bit_length()]
        tables.append(tuple(table))
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
    """Vertex count and edge pairs (i, j), i < j, of graph6 text, in the
    format's pair order (by j, then i).  Only nonzero body characters are
    read, so a sparse host costs a step per edge, not per pair: the pair
    at bit t is (t - j(j-1)/2, j) for the largest j with j(j-1)/2 <= t."""
    n, body = _graph6_body(text)
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
    return n, pairs


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
