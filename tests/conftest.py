"""Shared graph builders and independent test oracles.

The oracles here deliberately reimplement functionality from first
principles (plain adjacency sets, no bitmasks, no pruning) so the package
is checked against code that shares none of its machinery. Two use
bitmasks: ``oracle_longest_path_length``, the plain branch and bound kept
as the reference for the length search's shortcuts, and
``enumerate_all_simple_paths``, the DFS over every simple path that the
longest-path table and its walk are held to.
"""

from __future__ import annotations

import signal
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import strategies as st

from gallai.generate import generate_connected_graphs
from gallai.graphs import Graph, from_edge_list
from gallai.paths import Path
from gallai.triples import PathTriple


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def neighbors(graph: Graph, v: int) -> list[int]:
    """``v``'s neighbours, in ascending order."""
    return [w for w in range(graph.n) if graph.has_edge(v, w)]


def spider_graph(arms: int, arm_length: int) -> Graph:
    """Centre 0 with ``arms`` legs of ``arm_length`` edges each."""
    edges = []
    nxt = 1
    for _ in range(arms):
        prev = 0
        for _ in range(arm_length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(nxt, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


def petersen_family(*, k: int | None = None, s: int | None = None) -> Graph:
    """P - v, the Petersen graph minus a vertex, with a pendant path of
    ``k`` edges (n = 9 + 3k), or a K_s joined by one edge (n = 9 + 3s), on
    each of its three degree-2 vertices (the ports). Every member built so
    far has no vertex on all of its longest paths.

    Vertex 0 of ``petersen_graph`` is deleted and 1..9 become 0..8, so the
    ports are 0, 3 and 4; new vertices are numbered from 9, port by port,
    outward along a path, and a clique hangs by its first vertex.
    """
    if (k is None) == (s is None):
        raise ValueError("give exactly one of k and s")
    edges = [(u - 1, v - 1) for u, v in petersen_graph().edges() if u and v]
    nxt = 9
    for port in (0, 3, 4):
        if k is not None:
            for v in range(nxt, nxt + k):
                edges.append((v - 1 if v > nxt else port, v))
            nxt += k
        else:
            edges.append((port, nxt))
            edges += [(a, b) for a in range(nxt, nxt + s) for b in range(a + 1, nxt + s)]
            nxt += s
    return from_edge_list(nxt, edges)


def theta_graph() -> Graph:
    """Two hubs joined by three internally disjoint two-edge routes."""
    return from_edge_list(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])


def within_seconds(seconds, call):
    """``call()``, failing with ``TimeoutError`` once ``seconds`` pass."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def random_graphs(draw, max_n: int = 10):
    """Any graph on up to ``max_n`` vertices, disconnected ones included. At
    most two edges per vertex on average keeps an all-simple-paths listing
    small at ten vertices."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    return from_edge_list(n, edges)


@lru_cache(maxsize=None)
def corpus(n: int) -> tuple[Graph, ...]:
    return tuple(generate_connected_graphs(n))


def corpus_up_to(n: int) -> list[Graph]:
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(corpus(k))
    return out


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_distances(graph: Graph, a: int) -> dict[int, int]:
    """Plain queue BFS over adjacency lists, no bitmasks."""
    adj = {v: neighbors(graph, v) for v in range(graph.n)}
    dist = {a: 0}
    queue = [a]
    while queue:
        nxt = []
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def oracle_pair_distance(graph: Graph, a: int, b: int) -> int | None:
    return oracle_distances(graph, a).get(b)


def oracle_f_value(graph: Graph, paths) -> tuple[int, set[int]]:
    """Double loop over vertices and paths, taking the minimum single-pair
    distance to each path's vertices."""
    best = None
    argmin: set[int] = set()
    for v in range(graph.n):
        dist = oracle_distances(graph, v)
        total = 0
        for p in paths:
            total += min(dist[u] for u in p.vertices)
        if best is None or total < best:
            best = total
            argmin = {v}
        elif total == best:
            argmin.add(v)
    return best, argmin


def oracle_longest_path_length(graph: Graph) -> int:
    """The plain branch and bound that the package's length search refines:
    a call per path vertex from every start vertex, dropping a partial path
    when the unused vertices reachable from its head cannot beat the best
    length. No start rule and no forced chains; no shared code."""
    adj = graph.adjacency
    n = graph.n
    best = 0

    def reaches(start: int, used: int, need: int) -> bool:
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

    def dfs(head: int, used: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        ext = adj[head] & ~used
        if not ext or not reaches(ext, used, best - length + 1):
            return
        while ext:
            low = ext & -ext
            ext ^= low
            dfs(low.bit_length() - 1, used | low, length + 1)

    for start in range(n):
        dfs(start, 1 << start, 0)
        if best == n - 1:
            break
    return best


def enumerate_all_simple_paths(graph: Graph) -> tuple[Path, ...]:
    """Every simple path of the graph (single vertices included), canonical
    and reversal-free, in sorted order.

    No pruning and no memo whatsoever; exponential in the graph size. This
    is the independent correctness oracle for the completion table and the
    paths walked from it, meant for graphs of roughly ten vertices or fewer.
    """
    adj = graph.adjacency
    out: list[tuple[int, ...]] = []

    def dfs(head: int, used: int, seq: list[int]) -> None:
        if seq[0] <= head:
            out.append(tuple(seq))
        m = adj[head] & ~used
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            seq.append(v)
            dfs(v, used | low, seq)
            seq.pop()

    try:
        for start in range(graph.n):
            dfs(start, 1 << start, [start])
    finally:
        del dfs  # the closure refers to itself; free it now, not at the next collection
    return tuple(sorted(Path(t) for t in out))


def oracle_triple_sizes(paths) -> tuple[tuple[int, ...], tuple[int, ...], frozenset[int]]:
    """Exclusive-vertex counts, pairwise intersection sizes for the pairs
    (0,1), (0,2), (1,2), and the common vertices of three paths, from
    frozensets of their vertices rather than bit masks."""
    sets = [frozenset(p.vertices) for p in paths]
    x_sizes = tuple(
        len(sets[k] - sets[(k + 1) % 3] - sets[(k + 2) % 3]) for k in range(3)
    )
    pairwise = tuple(len(sets[i] & sets[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    return x_sizes, pairwise, sets[0] & sets[1] & sets[2]


def oracle_t_count(paths, which: int, *, strict: bool = False) -> int:
    """Crossings along ``paths[which]`` by the quadratic scan: every
    contiguous subpath Q is tested, with frozensets for membership, for
    meeting each other path exactly once and in opposite ends of Q."""
    a, b = (frozenset(p.vertices) for k, p in enumerate(paths) if k != which)
    seq = paths[which].vertices
    count = 0
    for i in range(len(seq)):
        for j in range(i, len(seq)):
            if strict and i == j:
                continue
            q = seq[i : j + 1]
            if sum(v in a for v in q) != 1 or sum(v in b for v in q) != 1:
                continue
            ends = (seq[i], seq[j])
            if ends[0] in a and ends[1] in b or ends[0] in b and ends[1] in a:
                count += 1
    return count


def restrict_to_triple(graph: Graph, triple: PathTriple) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph formed by the union of the triple's vertices and edges,
    relabelled densely: the graph that ``check_size_bound`` counts the
    vertices and edges of without building it.

    Returns the subgraph and the sorted original vertex ids; position k of
    that tuple is the original id of new vertex k. The union of three paths
    has at most 3(n0 - 1) edges, and it is connected whenever the paths are
    longest paths of a connected graph.
    """
    old_ids = sorted({v for p in triple.paths for v in p.vertices})
    remap = {old: new for new, old in enumerate(old_ids)}
    edges = set()
    for p in triple.paths:
        for a, b in zip(p.vertices, p.vertices[1:]):
            u, v = remap[a], remap[b]
            edges.add((u, v) if u < v else (v, u))
    return from_edge_list(len(old_ids), sorted(edges)), tuple(old_ids)


def oracle_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism by trying every vertex bijection."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(
        h.degree(v) for v in range(h.n)
    ):
        return False
    g_edges = set(g.edges())
    h_edges = set(h.edges())
    for perm in permutations(range(g.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in g_edges}
        if mapped == h_edges:
            return True
    return False


@pytest.fixture
def k13() -> Graph:
    return star_graph(3)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)
