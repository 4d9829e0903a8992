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
once, and its longest-path length is read off the pendant graph, before
subdivision, by ``subdivided_length``, which runs the length search of
``paths`` with each path scored for t. Every path lifted through the
stored edge chains is then decided against that length: a path of the
subdivided graph (checked edge by edge) is longest exactly when it has that
many edges, so the subdivided graph's longest paths are never listed. Each
entry keeps its graph's BFS distance lists by path mask and its lifted
paths, so each path's distances are computed, and each path lifted and
checked, once per subdivided graph. The base graph's f comes from a
``TripleAnalyzer``, once per triple of path masks.
``Subdivisions.verdicts`` gives a triple's two subdivision claims at one t.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .claims import HOLDS, SKIPPED_BUDGET, VIOLATED, ClaimVerdict, _gate_longest
from .graphs import Graph, graph_key
from .paths import (
    DEFAULT_PATH_CAP,
    BudgetError,
    LongestPathTable,
    Path,
    _longest_length,
    enumerate_longest_paths,  # wrapped by name in perfbench/spans.py:109
)
from .triples import PathTriple, TripleAnalyzer, f_value

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


def subdivided_length(graph: Graph, t: int, *, deadline: float | None = None) -> int:
    """The longest-path length of ``subdivide(graph, t).graph``, searched
    over the paths of ``graph`` itself.

    A longest path there runs over the whole chains of a path P = v0..vk
    (k >= 1) of ``graph``, plus part of a chain off P at each end:
    ``(t + 1) * k + t * e`` edges, where e is 2 when the ends have two
    different edges off P, 1 when they have one (both ends share the t
    vertices of v0vk) and 0 when none. Every other path lies within the
    chains at one vertex, and is shorter than two of them (or the one)
    taken whole. At t = 0 this is ``longest_path_length``, and both are
    the one branch and bound of ``paths``, over ``graph``'s paths.
    """
    return _longest_length(graph.adjacency, t, deadline)


# ---------------------------------------------------------------------------
# brute-force verification
# ---------------------------------------------------------------------------

class Subdivisions:
    """The subdivision checks of one base graph, sharing their built graphs.

    ``longest_paths`` is the base graph's longest-path table; without one,
    a capped table is filled, and its paths are never walked, since the
    checks read only its length and whether it was truncated. ``memo`` maps
    an (end set, t) pair, the end set as a sorted tuple, to the pendant
    map, the built instance, the exact longest-path length of its graph,
    that graph's BFS distance lists by path mask, the lifts (each base
    path's vertex tuple to its lifted ``Path`` and whether that is a
    longest path there). ``analyze`` is the base graph's analyser, whose
    per-mask-triple record gives a triple's base f: pass the one a caller
    already keeps for the graph, so that f is computed once per triple of
    path masks. ``holding`` keeps one ``holds`` verdict per tuple of
    witness values, so equal verdicts are one object: read them, never
    change them. Keep one object per base graph.
    """

    def __init__(self, graph: Graph, longest_paths: LongestPathTable | None = None,
                 analyze: TripleAnalyzer | None = None):
        self.graph = graph
        self.longest_paths = (
            LongestPathTable(graph, DEFAULT_PATH_CAP) if longest_paths is None else longest_paths
        )
        self.analyze = TripleAnalyzer(graph) if analyze is None else analyze
        self.memo: dict[
            tuple[tuple[int, ...], int],
            tuple[
                dict[int, int],
                SubdividedInstance,
                int,
                dict[int, list[int]],
                dict[tuple[int, ...], tuple[Path, bool]],
            ],
        ] = {}
        self.holding: dict[tuple, ClaimVerdict] = {}

    def verdicts(
        self, triple: PathTriple, t_values: Iterable[int]
    ) -> Iterator[tuple[ClaimVerdict, ClaimVerdict]]:
        """The triple's ``subdivision_prop`` and ``size_bound`` verdicts at
        each t of ``t_values``, in order; the triple's union is counted once."""
        sizes = union_sizes(triple)
        for t in t_values:
            yield (verify_proposition(self, triple, t),
                   check_size_bound(self.graph, triple, t, sizes))


def verify_proposition(subdivisions: Subdivisions, triple: PathTriple, t: int) -> ClaimVerdict:
    """Check by brute force that subdividing scales the instance exactly.

    Three sub-checks on the constructed graph: every lifted path is a
    longest path there (a path of that graph, edge by edge, with its exact
    longest-path length, which ``subdivided_length`` reads off the pendant
    graph), the minimum distance sum equals (t + 1) times the base value,
    and some witness of the minimum is an original vertex of the base graph
    (an id below ``graph.n``).

    The constructed graph and its length come from the memo of
    ``subdivisions``, filled on the first triple with this end set and t;
    each path is lifted and checked once per entry. A ``holds`` verdict is
    shared with every triple whose witness is equal; a ``violated`` one is
    built for its own triple and never stored. A graph that would have more than
    ``DEFAULT_VERIFY_MAX_VERTICES`` vertices (counted before it is built),
    or a length search past ``DEFAULT_VERIFY_BUDGET_S`` seconds, gives
    ``skipped_budget`` rather than a guess, and stores nothing.
    """
    graph = subdivisions.graph
    lp, short = _gate_longest("subdivision_prop", graph, triple.paths, subdivisions.longest_paths)
    if short is not None:
        return short
    base_f = subdivisions.analyze.sets(triple)[0]
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
            length = subdivided_length(ext.graph, t, deadline=deadline)
        except BudgetError:
            return ClaimVerdict(
                "subdivision_prop", SKIPPED_BUDGET, {"budget_s": DEFAULT_VERIFY_BUDGET_S})
        entry = subdivisions.memo[key] = (ext.pendant_map, inst, length, {}, {})
    pendant_map, inst, sub_length, sub_distances, lifts = entry
    adj = inst.graph.adjacency
    for p in triple.paths:
        if p.vertices not in lifts:
            q = _lift(_extend(p, pendant_map), inst.chains)
            # Lifting builds paths of the subdivided graph; the adjacency
            # check still holds the decision to the strength of a
            # longest-path listing.
            lifts[p.vertices] = q, q.length == sub_length and all(
                adj[a] >> b & 1 for a, b in zip(q.vertices, q.vertices[1:]))
    (l0, m0), (l1, m1), (l2, m2) = [lifts[p.vertices] for p in triple.paths]
    sub_f, sub_witnesses = f_value(inst.graph, PathTriple((l0, l1, l2)), sub_distances)
    original_witness = any(w < graph.n for w in sub_witnesses)
    expected = (t + 1) * base_f
    values = (t, base_f, sub_f, expected, lp.length, sub_length, m0, m1, m2, original_witness)
    verdict = subdivisions.holding.get(values)
    if verdict is not None:
        return verdict
    info = {
        "t": t,
        "base_f": base_f,
        "subdivided_f": sub_f,
        "expected_f": expected,
        "base_length": lp.length,
        "subdivided_length": sub_length,
        "lifted_longest": [m0, m1, m2],
        "original_witness": original_witness,
    }
    if m0 and m1 and m2 and sub_f == expected and original_witness:
        verdict = subdivisions.holding[values] = ClaimVerdict("subdivision_prop", HOLDS, info)
        return verdict
    info.update(
        {
            "graph": graph_key(graph),
            "subdivided_graph": graph_key(inst.graph),
            "paths": [list(p.vertices) for p in triple.paths],
        }
    )
    return ClaimVerdict("subdivision_prop", VIOLATED, info)


def union_sizes(triple: PathTriple) -> tuple[int, int, int]:
    """The vertex and edge counts of the triple's union, and its number of
    distinct path ends, counted from the paths without building the union
    as a graph; none of them depends on t."""
    p0, p1, p2 = triple.paths
    n0 = (p0.mask | p1.mask | p2.mask).bit_count()
    m0 = len({
        (a, b) if a < b else (b, a)
        for p in triple.paths
        for a, b in zip(p.vertices, p.vertices[1:])
    })
    ends = len({e for p in triple.paths for e in p.ends})
    return n0, m0, ends


def check_size_bound(
    graph: Graph, triple: PathTriple, t: int, sizes: tuple[int, int, int] | None = None
) -> ClaimVerdict:
    """Size accounting for the restricted-and-subdivided instance.

    Restricts the graph to the triple's union first, so with n0 vertices
    there the union has at most 3(n0 - 1) edges and the constructed
    subdivided graph has at most n0 + 3(n0 + 1)t + 6 vertices. The
    instance itself is not built: attaching one pendant to each of the
    ``ends`` distinct path ends adds ``ends`` vertices and edges, and
    subdividing adds ``t`` vertices per edge, so it has
    ``n0 + ends + t * (m0 + ends)`` vertices, where m0 counts the union's
    edges. ``sizes`` is ``union_sizes(triple)``, passed by a caller that
    checks several t; it is counted here when omitted.
    """
    n0, m0, ends = union_sizes(triple) if sizes is None else sizes
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
