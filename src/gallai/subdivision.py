"""Pendant extension, uniform edge subdivision, path lifting, and exact
verification that the construction scales the minimum distance sum by
t + 1 while keeping the lifted paths longest.

The pipeline for a graph G with a path triple is: attach one new degree-1
neighbour at each distinct path end (between two and six new vertices),
then replace every edge with a path of t interior vertices. The lifted
paths gain the two pendant edges and traverse exactly the subdivided
images of their edges.

Vertex ids carry the provenance, so no per-vertex tags are kept: in a
built instance the base graph's vertices keep their ids 0..n-1, the
pendants follow in sorted-end order, and the interior vertices of the
subdivided edges come last, in sorted-edge then position order.

The subdivided graph depends only on the base graph, the triple's set of
distinct ends and t, so many triples share one. A ``Subdivisions`` object
holds one base graph's memo of them, keyed on (end set, t): each is built
and has its longest-path length searched once. Every path lifted through
the stored edge chains is then decided against that length: a path of the
subdivided graph (checked edge by edge) is longest exactly when it has that
many edges, so the subdivided graph's longest paths are never listed. It
also keeps each graph's BFS distance lists by path mask, so each path's
distances are computed once per graph, the base graph's included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .claims import HOLDS, SKIPPED_BUDGET, VIOLATED, ClaimVerdict, _gate_longest
from .graphs import Graph, from_edge_list, graph_key
from .paths import (
    BudgetError,
    LongestPathTable,
    Path,
    enumerate_longest_paths,  # wrapped by name in perfbench/spans.py:109
    longest_path_length,
)
from .triples import PathTriple, f_value

DEFAULT_VERIFY_MAX_VERTICES = 60
DEFAULT_VERIFY_BUDGET_S = 120.0


@dataclass(frozen=True)
class PendantExtension:
    """A graph with one new leaf per distinct path end, plus the extended
    paths and the end-to-pendant map."""

    graph: Graph
    paths: tuple[Path, Path, Path]
    pendant_map: dict[int, int]


@dataclass(frozen=True)
class SubdividedInstance:
    """Result of subdividing every edge of a source graph t times.

    Construction arithmetic is enforced at build time:
    ``graph.n == source.n + t * source.m`` and
    ``graph.m == (t + 1) * source.m``; every lifted path has
    ``(t + 1) * (len(source path) - 1) + 1`` vertices. ``chains`` maps each
    source edge ``(u, v)``, ``u < v``, to its interior vertices from u on,
    so further source paths can be lifted without building again.
    """

    source: Graph
    source_paths: tuple[Path, ...]
    t: int
    graph: Graph
    paths: tuple[Path, ...]
    chains: dict[tuple[int, int], tuple[int, ...]]

    def __post_init__(self):
        m0 = self.source.m
        assert self.graph.n == self.source.n + self.t * m0
        assert self.graph.m == (self.t + 1) * m0
        for src, lifted in zip(self.source_paths, self.paths):
            assert len(lifted) == (self.t + 1) * (len(src) - 1) + 1


def attach_pendants(graph: Graph, triple: PathTriple) -> PendantExtension:
    """Attach one new degree-1 vertex to each distinct path end.

    Ends shared between paths share their pendant, so between two and six
    vertices (and edges) are added. Every path must have at least two
    vertices; a single-vertex path has no two ends to extend. The pendants
    get ids ``graph.n, graph.n + 1, ...`` in sorted-end order.
    """
    for p in triple.paths:
        if len(p) < 2:
            raise ValueError("pendant extension needs paths with at least two vertices")
    ends = sorted({e for p in triple.paths for e in p.ends})
    n = graph.n
    pendant_map = {e: n + i for i, e in enumerate(ends)}
    assert 2 <= len(pendant_map) <= 6
    adj = list(graph.adjacency) + [0] * len(ends)
    for e, pendant in pendant_map.items():
        adj[e] |= 1 << pendant
        adj[pendant] = 1 << e
    new_graph = Graph(len(adj), tuple(adj))
    new_paths = tuple(_extend(p, pendant_map) for p in triple.paths)
    return PendantExtension(new_graph, new_paths, pendant_map)


def _extend(path: Path, pendant_map: dict[int, int]) -> Path:
    # The pendants are new vertices numbered in sorted-end order, and the
    # path's first end is below its last, so the extension is distinct and
    # already in canonical orientation.
    vs = path.vertices
    first, last = pendant_map[vs[0]], pendant_map[vs[-1]]
    return Path._trusted((first,) + vs + (last,), path.mask | 1 << first | 1 << last)


def _lift(path: Path, chains: dict[tuple[int, int], tuple[int, ...]]) -> Path:
    # The chains are disjoint and hold no source vertex, so the lift is a
    # simple path. Its ends are the source path's, whose first vertex is
    # below its last, so it is already in canonical orientation.
    verts = [path.vertices[0]]
    for a, b in zip(path.vertices, path.vertices[1:]):
        chain = chains[(a, b)] if a < b else chains[(b, a)][::-1]
        verts.extend(chain)
        verts.append(b)
    mask = 0
    for v in verts:
        mask |= 1 << v
    return Path._trusted(tuple(verts), mask)


def subdivide(graph: Graph, t: int, paths: tuple[Path, ...] = ()) -> SubdividedInstance:
    """Replace every edge with a path of ``t`` interior vertices and lift
    the given paths edge by edge.

    Source vertices keep their ids; the interior vertices are appended in
    sorted-edge then position order, so the k-th interior vertex (from 1,
    counted from u) of the i-th edge ``(u, v)`` in ``graph.edges()`` has
    id ``graph.n + i * t + k - 1``. Outputs are therefore reproducible
    byte for byte, and ``t = 0`` reproduces the source graph unchanged.
    """
    if t < 0:
        raise ValueError("subdivision multiplicity must be nonnegative")
    n = graph.n
    edges = graph.edges()
    adj = [0] * (n + t * len(edges))
    chains: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, (u, v) in enumerate(edges):
        chain = tuple(range(n + i * t, n + (i + 1) * t))
        chains[(u, v)] = chain
        run = (u,) + chain + (v,)
        for a, b in zip(run, run[1:]):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return SubdividedInstance(
        source=graph,
        source_paths=tuple(paths),
        t=t,
        graph=Graph(len(adj), tuple(adj)),
        paths=tuple(_lift(p, chains) for p in paths),
        chains=chains,
    )


def build_instance(graph: Graph, triple: PathTriple, t: int) -> SubdividedInstance:
    """Full construction chain: pendant extension, then t-fold subdivision."""
    ext = attach_pendants(graph, triple)
    return subdivide(ext.graph, t, ext.paths)


# ---------------------------------------------------------------------------
# brute-force verification
# ---------------------------------------------------------------------------

class Subdivisions:
    """The subdivision checks of one base graph, sharing their built graphs.

    ``longest_paths`` is the base graph's longest-path table, listed here
    when not given. ``memo`` maps an (end set, t) pair, the end set as a
    sorted tuple, to the pendant map, the built instance and the exact
    longest-path length of its graph. ``distances`` holds the base graph's
    BFS distance lists by path mask, and ``sub_distances`` those of each
    built graph under its memo key, so each path is searched once per
    graph. Keep one object per base graph.
    """

    def __init__(self, graph: Graph, longest_paths: LongestPathTable | None = None):
        self.graph = graph
        self.longest_paths = (
            enumerate_longest_paths(graph) if longest_paths is None else longest_paths
        )
        self.memo: dict[
            tuple[tuple[int, ...], int], tuple[dict[int, int], SubdividedInstance, int]
        ] = {}
        self.distances: dict[int, list[int]] = {}
        self.sub_distances: dict[tuple[tuple[int, ...], int], dict[int, list[int]]] = {}


def verify_proposition(subdivisions: Subdivisions, triple: PathTriple, t: int) -> ClaimVerdict:
    """Check by brute force that subdividing scales the instance exactly.

    Three sub-checks on the constructed graph: every lifted path is a
    longest path there (a path of that graph, edge by edge, whose length is
    its exactly searched longest-path length), the minimum distance sum
    equals (t + 1) times the base value, and some witness of the minimum is
    an original vertex of the base graph (an id below ``graph.n``).

    The constructed graph and its length come from the memo of
    ``subdivisions``, built and searched on the first triple with this end
    set and t. A graph that would have more than
    ``DEFAULT_VERIFY_MAX_VERTICES`` vertices (counted before it is built),
    or a search past ``DEFAULT_VERIFY_BUDGET_S`` seconds, gives
    ``skipped_budget`` rather than a guess, and stores nothing.
    """
    graph = subdivisions.graph
    lp, short = _gate_longest("subdivision_prop", graph, triple.paths, subdivisions.longest_paths)
    if short is not None:
        return short
    base_f = f_value(graph, triple, subdivisions.distances)[0]
    key = (tuple(sorted({e for p in triple.paths for e in p.ends})), t)
    entry = subdivisions.memo.get(key)
    if entry is None:
        # One pendant per distinct end, then t new vertices on every edge:
        # the graph's size is known before it is built.
        ends = len(key[0])
        vertices = graph.n + ends + t * (graph.m + ends)
        if vertices > DEFAULT_VERIFY_MAX_VERTICES:
            return ClaimVerdict(
                "subdivision_prop",
                SKIPPED_BUDGET,
                {"vertices": vertices, "max_vertices": DEFAULT_VERIFY_MAX_VERTICES},
            )
        ext = attach_pendants(graph, triple)
        inst = subdivide(ext.graph, t)
        deadline = time.monotonic() + DEFAULT_VERIFY_BUDGET_S
        try:
            length = longest_path_length(inst.graph, deadline=deadline)
        except BudgetError:
            return ClaimVerdict(
                "subdivision_prop", SKIPPED_BUDGET, {"budget_s": DEFAULT_VERIFY_BUDGET_S})
        entry = subdivisions.memo[key] = (ext.pendant_map, inst, length)
        subdivisions.sub_distances[key] = {}
    pendant_map, inst, sub_length = entry
    adj = inst.graph.adjacency
    lifted = tuple(_lift(_extend(p, pendant_map), inst.chains) for p in triple.paths)
    # Lifting builds paths of the subdivided graph; the adjacency check
    # still holds the decision to the strength of a longest-path listing.
    members = [
        p.length == sub_length
        and all(adj[a] >> b & 1 for a, b in zip(p.vertices, p.vertices[1:]))
        for p in lifted
    ]
    sub_f, sub_witnesses = f_value(
        inst.graph, PathTriple(lifted), subdivisions.sub_distances[key])
    expected = (t + 1) * base_f
    original_witness = any(w < graph.n for w in sub_witnesses)
    info = {
        "t": t,
        "base_f": base_f,
        "subdivided_f": sub_f,
        "expected_f": expected,
        "base_length": lp.length,
        "subdivided_length": sub_length,
        "lifted_longest": members,
        "original_witness": original_witness,
    }
    if all(members) and sub_f == expected and original_witness:
        return ClaimVerdict("subdivision_prop", HOLDS, info)
    info.update(
        {
            "graph": graph_key(graph),
            "subdivided_graph": graph_key(inst.graph),
            "paths": [list(p.vertices) for p in triple.paths],
        }
    )
    return ClaimVerdict("subdivision_prop", VIOLATED, info)


def restrict_to_triple(graph: Graph, triple: PathTriple) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph formed by the union of the triple's vertices and edges,
    relabelled densely.

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


def check_size_bound(graph: Graph, triple: PathTriple, t: int) -> ClaimVerdict:
    """Size accounting for the restricted-and-subdivided instance.

    Restricts the graph to the triple's union first, so with n0 vertices
    there the union has at most 3(n0 - 1) edges and the constructed
    subdivided graph has at most n0 + 3(n0 + 1)t + 6 vertices. The
    instance itself is not built: attaching one pendant to each of the
    ``ends`` distinct path ends adds ``ends`` vertices and edges, and
    subdividing adds ``t`` vertices per edge, so it has
    ``n0 + ends + t * (m0 + ends)`` vertices, where m0 counts the union's
    edges. Both are counted from the paths, as ``restrict_to_triple``'s
    graph would have them, without building that graph.
    """
    p0, p1, p2 = triple.paths
    n0 = (p0.mask | p1.mask | p2.mask).bit_count()
    m0 = len({
        (a, b) if a < b else (b, a)
        for p in triple.paths
        for a, b in zip(p.vertices, p.vertices[1:])
    })
    ends = len({e for p in triple.paths for e in p.ends})
    subdivided_vertices = n0 + ends + t * (m0 + ends)
    edge_bound = 3 * (n0 - 1)
    vertex_bound = n0 + 3 * (n0 + 1) * t + 6
    info = {
        "t": t,
        "n0": n0,
        "restricted_edges": m0,
        "edge_bound": edge_bound,
        "subdivided_vertices": subdivided_vertices,
        "vertex_bound": vertex_bound,
    }
    if m0 <= edge_bound and subdivided_vertices <= vertex_bound:
        return ClaimVerdict("size_bound", HOLDS, info)
    info["graph"] = graph_key(graph)
    info["paths"] = [list(p.vertices) for p in triple.paths]
    return ClaimVerdict("size_bound", VIOLATED, info)
