"""Immutable bitset-backed graphs: construction, BFS distances, and
graph6 / edge-list interchange.

Vertices are dense integers ``0..n-1`` with no labels. Adjacency is one
Python int per vertex used as a bitset, which keeps neighbourhood
intersection and BFS frontier expansion at a handful of word operations;
path search treats these masks as its hot-loop data structure.

This module owns two rules that others share. The upper-triangle bit
order (``_adjacency_rows`` decodes it, ``_triangle_mask`` encodes it) is
both the graph6 payload and the generator's canonical mask, so
``mask_to_graph6`` writes a canonical mask as a record with no graph. The
bitmask reachability search ``_reaches`` decides ``is_connected`` here and
prunes the path searches in ``paths``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

GRAPH6_MAX_N = 62
EDGE_LIST_MAX_N = 10_000  # see parse_edge_list


class Graph6Error(ValueError):
    """Raised for malformed graph6 records."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    Instances are immutable after construction and hashable, so they are
    safe to share across workers and to use as cache keys. The constructor
    checks its adjacency masks: every bit within ``0..n-1``, no self-loop,
    and ``v`` in ``adj[u]`` exactly when ``u`` is in ``adj[v]``; it raises
    ``ValueError`` otherwise. Every factory builds through it.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        for u, row in enumerate(adj):
            if not isinstance(row, int):
                raise ValueError(f"adjacency mask of vertex {u} is not an int")
            if row >> n or row < 0:
                raise ValueError(f"adjacency mask of vertex {u} has a bit outside 0..{n - 1}")
            bit = 1 << u
            if row & bit:
                raise ValueError(f"self-loop at vertex {u}")
            while row:
                low = row & -row
                v = low.bit_length() - 1
                if not adj[v] & bit:
                    raise ValueError(f"edge ({u}, {v}) is missing from vertex {v}'s mask")
                row ^= low
        self.n = n
        self._adj = adj

    @property
    def adjacency(self) -> tuple[int, ...]:
        return self._adj

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(a.bit_count() for a in self._adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        out = []
        for u in range(self.n):
            above = self._adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(above):
                out.append((u, v))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __reduce__(self):
        return (Graph, (self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _edge_problem(n: int, u: int, v: int) -> str | None:
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}"
    if u == v:
        return f"self-loop at vertex {u}"
    return None


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises ``ValueError`` on out-of-range endpoints or self-loops (the
    constructor finds the latter).
    """
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(_edge_problem(n, u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# the upper-triangle bit order, shared by graph6 payloads and generator masks
# ---------------------------------------------------------------------------

def _adjacency_rows(mask: int, n: int) -> list[int]:
    """The adjacency rows of the upper-triangle bit string ``mask``: pairs
    (0,1), (0,2), (1,2), (0,3), ... column by column, the first pair at the
    most significant of the string's n(n-1)/2 bits."""
    rows = [0] * n
    pos = n * (n - 1) // 2  # walks the string from its most significant bit
    for j in range(1, n):
        pos -= j
        col = mask >> pos & (1 << j) - 1  # the pair (i, j) at bit j-1-i
        bit = 1 << j
        while col:
            low = col & -col
            col ^= low
            i = j - low.bit_length()
            rows[i] |= bit
            rows[j] |= 1 << i
    return rows


def _triangle_mask(adj: tuple[int, ...]) -> int:
    """The upper-triangle bit string of the adjacency rows ``adj``; the
    inverse of ``_adjacency_rows``."""
    mask = 0
    for j, row in enumerate(adj):
        for i in range(j):
            mask = mask << 1 | (row >> i & 1)
    return mask


# ---------------------------------------------------------------------------
# graph6 interchange (single-byte headers only, n <= 62)
# ---------------------------------------------------------------------------

def parse_graph6(record: str | bytes) -> Graph:
    """Decode one graph6 record.

    The optional ``>>graph6<<`` prefix and surrounding whitespace are
    tolerated; everything else is strict: header byte ``63 + n`` with
    ``1 <= n <= 62``, followed by exactly ``ceil(n(n-1)/2 / 6)`` data bytes
    in ``63..126`` packing the upper adjacency triangle column by column,
    most significant bit first.
    """
    if isinstance(record, bytes):
        try:
            text = record.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("graph6 record is not ASCII") from exc
    else:
        text = record
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):].strip()
    if not text:
        raise Graph6Error("empty graph6 record")
    header = ord(text[0])
    if header == 126:
        raise Graph6Error("extended size headers (n > 62) are not supported")
    if not 63 <= header <= 63 + GRAPH6_MAX_N:
        raise Graph6Error(f"bad graph6 header byte {header}")
    n = header - 63
    if n == 0:
        raise Graph6Error("graph6 record encodes zero vertices")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    data = text[1:]
    if len(data) != need:
        raise Graph6Error(
            f"graph6 record for n={n} needs {need} data bytes, got {len(data)}"
        )
    payload = 0
    for ch in data:
        b = ord(ch)
        if not 63 <= b <= 126:
            raise Graph6Error(f"graph6 data byte {b} out of range 63..126")
        payload = payload << 6 | b - 63
    return Graph(n, tuple(_adjacency_rows(payload >> (6 * need - npairs), n)))


def to_graph6(graph: Graph) -> str:
    """Encode a graph as its canonical bare graph6 record (n <= 62)."""
    if graph.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encoding supports at most {GRAPH6_MAX_N} vertices")
    return mask_to_graph6(graph.n, _triangle_mask(graph.adjacency))


def mask_to_graph6(n: int, mask: int) -> str:
    """The bare graph6 record of the upper-triangle bit string ``mask`` on
    1 <= n <= 62 vertices, which is its payload; the range is not checked."""
    npairs = n * (n - 1) // 2
    bits = npairs + -npairs % 6  # zeros pad the payload to whole data bytes
    payload = mask << bits - npairs
    return bytes([63 + n] + [63 + (payload >> k & 63) for k in range(bits - 6, -1, -6)]).decode()


def graph_key(graph: Graph) -> str:
    """A deterministic string id: graph6 when possible, edge list otherwise."""
    if graph.n <= GRAPH6_MAX_N:
        return to_graph6(graph)
    pairs = ";".join(f"{u},{v}" for u, v in graph.edges())
    return f"~n{graph.n}:{pairs}"


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"
# ---------------------------------------------------------------------------

def parse_edge_list(text: str, source: str | None = None) -> Graph:
    """Decode ``n m`` and then ``m`` distinct edges as endpoint pairs,
    separated by any whitespace. A ``ValueError`` names the 1-based line at
    fault (a bad or repeated pair's first, the header's for a wrong count),
    after ``source``.

    The header's ``n`` may be at most ``EDGE_LIST_MAX_N`` (10,000), checked
    before anything of that size is built. Building a graph costs time and
    memory linear in ``n`` whatever its edges (about 1 s and 20 MB per
    million vertices), so a ten-byte header could otherwise cost hours. The
    limit is far above graph6's 62 and above what a longest-path search
    reaches: a path much past 1,000 vertices exceeds Python's default
    recursion limit."""
    prefix = "" if source is None else f"{source}: "
    # Every line break is whitespace, so these are the tokens of text.split().
    tokens = [(tok, number) for number, line in enumerate(text.splitlines(), 1)
              for tok in line.split()]
    if len(tokens) < 2:
        raise ValueError(f"{prefix}edge-list input needs an 'n m' header line")
    numbers = []
    for tok, number in tokens:
        try:
            numbers.append(int(tok))
        except ValueError:
            raise ValueError(
                f"{prefix}line {number}: edge-list token {tok!r} is not an integer") from None
    n, m = numbers[0], numbers[1]
    if len(numbers) != 2 + 2 * m:
        raise ValueError(f"{prefix}line {tokens[1][1]}: edge-list input declares {m} "
                         f"edges but carries {(len(numbers) - 2) // 2} endpoint pairs")
    if n < 1:
        raise ValueError(f"{prefix}line {tokens[0][1]}: graph needs at least one vertex")
    if n > EDGE_LIST_MAX_N:
        raise ValueError(f"{prefix}line {tokens[0][1]}: edge-list header declares {n} "
                         f"vertices, more than the {EDGE_LIST_MAX_N} allowed")
    edges = list(zip(numbers[2::2], numbers[3::2]))
    seen = set()
    for (u, v), (_, number) in zip(edges, tokens[2::2]):
        problem = _edge_problem(n, u, v)
        if problem:
            raise ValueError(f"{prefix}line {number}: {problem}")
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise ValueError(f"{prefix}line {number}: edge ({u}, {v}) is listed twice")
        seen.add(edge)
    return from_edge_list(n, edges)


def format_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def parse_graph6_lines(lines: Iterable[str], source: str | None = None) -> list[Graph]:
    """Decode one graph per non-empty line.

    A malformed record raises ``Graph6Error`` naming its 1-based line
    number, prefixed by ``source`` (the file it came from) when given.
    """
    out = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                out.append(parse_graph6(line))
            except Graph6Error as exc:
                where = f"line {number}" if source is None else f"{source}: line {number}"
                raise Graph6Error(f"{where}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# connectivity and distances
# ---------------------------------------------------------------------------

def _reaches(adj: tuple[int, ...], start: int, used: int, need: int) -> bool:
    """Whether at least ``need`` vertices are reachable from the mask
    ``start`` without entering ``used``; stops as soon as they are."""
    seen = frontier = start
    while seen.bit_count() < need:
        if not frontier:
            return False
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~used & ~seen
        seen |= frontier
    return True


def is_connected(graph: Graph) -> bool:
    """Whether every vertex is reachable from vertex 0."""
    return _reaches(graph.adjacency, 1, 0, graph.n)


def _distance_list(adj: tuple[int, ...], n: int, src_mask: int) -> list[int | None]:
    """BFS layers from a source set; unreachable vertices stay ``None``."""
    dist: list[int | None] = [None] * n
    layer = src_mask
    seen = src_mask
    d = 0
    while layer:
        m = layer
        nxt = 0
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            dist[low.bit_length() - 1] = d
            m ^= low
        layer = nxt & ~seen
        seen |= layer
        d += 1
    return dist
