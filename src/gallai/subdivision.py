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
distinct ends and t, so many triples share one. Reuse of its longest-path
enumeration is in the caller's hands: ``verify_proposition`` reads and
fills an optional ``subdivided`` dict, which the callers keep for one
base graph at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .claims import (
    HOLDS,
    SKIPPED_BUDGET,
    SKIPPED_TRUNCATED,
    VIOLATED,
    ClaimVerdict,
    _gate_longest,
)
from .graphs import Graph, from_edge_list, graph_key
from .paths import BudgetError, LongestPathSet, Path, enumerate_longest_paths
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
    ``(t + 1) * (len(source path) - 1) + 1`` vertices.
    """

    source: Graph
    source_paths: tuple[Path, ...]
    t: int
    graph: Graph
    paths: tuple[Path, ...]

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
    new_paths = tuple(
        Path((pendant_map[p.vertices[0]],) + p.vertices + (pendant_map[p.vertices[-1]],))
        for p in triple.paths
    )
    return PendantExtension(new_graph, new_paths, pendant_map)


def _lift(path: Path, chains: dict[tuple[int, int], tuple[int, ...]]) -> Path:
    verts = [path.vertices[0]]
    for a, b in zip(path.vertices, path.vertices[1:]):
        chain = chains[(a, b)] if a < b else chains[(b, a)][::-1]
        verts.extend(chain)
        verts.append(b)
    return Path(tuple(verts))


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
    )


def build_instance(graph: Graph, triple: PathTriple, t: int) -> SubdividedInstance:
    """Full construction chain: pendant extension, then t-fold subdivision."""
    ext = attach_pendants(graph, triple)
    return subdivide(ext.graph, t, ext.paths)


# ---------------------------------------------------------------------------
# brute-force verification
# ---------------------------------------------------------------------------

def verify_proposition(
    graph: Graph,
    triple: PathTriple,
    t: int,
    *,
    longest_paths: LongestPathSet | None = None,
    max_vertices: int = DEFAULT_VERIFY_MAX_VERTICES,
    budget_s: float = DEFAULT_VERIFY_BUDGET_S,
    subdivided: dict[Graph, LongestPathSet] | None = None,
) -> ClaimVerdict:
    """Check by brute force that subdividing scales the instance exactly.

    Three sub-checks on the constructed graph: every lifted path is a
    longest path there (membership in the independently enumerated
    longest-path set), the minimum distance sum equals (t + 1) times the
    base value, and some witness of the minimum is an original vertex of
    the base graph (an id below ``graph.n``). Instances beyond the vertex
    or time budget are reported ``skipped_budget`` rather than guessed at.

    ``subdivided`` maps constructed graphs to their longest-path sets. It
    is read before enumerating and filled with every enumeration that
    finished, so triples sharing an end set enumerate once per t. Keep one
    dict per base graph; the result does not depend on it.
    """
    lp, short = _gate_longest("subdivision_prop", graph, triple.paths, longest_paths)
    if short is not None:
        return short
    deadline = time.monotonic() + budget_s if budget_s is not None else None
    base_f, _ = f_value(graph, triple)
    inst = build_instance(graph, triple, t)
    if inst.graph.n > max_vertices:
        return ClaimVerdict(
            "subdivision_prop",
            SKIPPED_BUDGET,
            {"vertices": inst.graph.n, "max_vertices": max_vertices},
        )
    lp_sub = None if subdivided is None else subdivided.get(inst.graph)
    if lp_sub is None:
        try:
            lp_sub = enumerate_longest_paths(inst.graph, deadline=deadline)
        except BudgetError:
            return ClaimVerdict("subdivision_prop", SKIPPED_BUDGET, {"budget_s": budget_s})
        if subdivided is not None:
            subdivided[inst.graph] = lp_sub
    if lp_sub.truncated:
        return ClaimVerdict(
            "subdivision_prop",
            SKIPPED_TRUNCATED,
            {"reason": "longest-path enumeration truncated on the subdivided graph"},
        )
    members = [p in lp_sub for p in inst.paths]
    sub_f, sub_witnesses = f_value(inst.graph, PathTriple(inst.paths))
    expected = (t + 1) * base_f
    original_witness = any(w < graph.n for w in sub_witnesses)
    info = {
        "t": t,
        "base_f": base_f,
        "subdivided_f": sub_f,
        "expected_f": expected,
        "base_length": lp.length,
        "subdivided_length": lp_sub.length,
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
    edges.
    """
    sub, _ = restrict_to_triple(graph, triple)
    n0 = sub.n
    ends = len({e for p in triple.paths for e in p.ends})
    subdivided_vertices = n0 + ends + t * (sub.m + ends)
    edge_bound = 3 * (n0 - 1)
    vertex_bound = n0 + 3 * (n0 + 1) * t + 6
    info = {
        "t": t,
        "n0": n0,
        "restricted_edges": sub.m,
        "edge_bound": edge_bound,
        "subdivided_vertices": subdivided_vertices,
        "vertex_bound": vertex_bound,
    }
    if sub.m <= edge_bound and subdivided_vertices <= vertex_bound:
        return ClaimVerdict("size_bound", HOLDS, info)
    info["graph"] = graph_key(graph)
    info["paths"] = [list(p.vertices) for p in triple.paths]
    return ClaimVerdict("size_bound", VIOLATED, info)
