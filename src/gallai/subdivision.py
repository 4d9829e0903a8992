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
holds one base graph's memo of them, keyed on (end mask, t): each is built
once, and its longest-path length is read off the pendant graph, before
subdivision, by ``subdivided_length``, which runs the length search of
``paths`` with each path scored for t. Every path lifted through the
stored edge chains is then decided against that length: a path of the
subdivided graph (checked edge by edge) is longest exactly when it has that
many edges, so the subdivided graph's longest paths are never listed. Each
entry keeps every path it has lifted, with that decision and the lifted
path's BFS distances packed one byte per vertex into an int, so each path
is lifted, checked and searched once per subdivided graph, and a triple's
subdivided f is the least byte of three stored ints summed. The base
graph's f comes from a ``TripleAnalyzer``, once per triple of path masks.
``Subdivisions.verdicts`` gives a triple's two subdivision claims at one t.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from .claims import HOLDS, SKIPPED_BUDGET, VIOLATED, ClaimVerdict, _gate_longest
from .graphs import Graph, _distance_list, graph_key
from .paths import (
    BudgetError,
    LongestPathTable,
    Path,
    _longest_length,
    enumerate_longest_paths,  # wrapped by name in perfbench/spans.py:109
)
from .record import FrozenRecord
from .triples import (
    PathTriple,
    TripleAnalyzer,
    f_value,  # wrapped by name in perfbench/spans.py:110
)

DEFAULT_VERIFY_MAX_VERTICES = 60
DEFAULT_VERIFY_BUDGET_S = 120.0


class PendantExtension(FrozenRecord):
    """A graph with one new leaf per distinct path end, plus the extended
    paths and the end-to-pendant map."""

    def __init__(self, graph: Graph, paths: tuple[Path, Path, Path], pendant_map: dict[int, int]):
        self.__dict__.update(graph=graph, paths=paths, pendant_map=pendant_map)


class SubdividedInstance(FrozenRecord):
    """Result of subdividing every edge of a source graph t times.

    Construction arithmetic is enforced at build time:
    ``graph.n == source.n + t * source.m`` and
    ``graph.m == (t + 1) * source.m``; every lifted path has
    ``(t + 1) * (len(source path) - 1) + 1`` vertices. ``chains`` maps each
    source edge ``(u, v)``, ``u < v``, to its interior vertices from u on,
    so further source paths can be lifted without building again.
    """

    def __init__(self, source: Graph, source_paths: tuple[Path, ...], t: int, graph: Graph,
                 paths: tuple[Path, ...], chains: dict[tuple[int, int], tuple[int, ...]]):
        m0 = source.m
        assert graph.n == source.n + t * m0
        assert graph.m == (t + 1) * m0
        for src, lifted in zip(source_paths, paths):
            assert len(lifted) == (t + 1) * (len(src) - 1) + 1
        self.__dict__.update(source=source, source_paths=source_paths, t=t, graph=graph,
                             paths=paths, chains=chains)


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

    ``longest_paths`` is the base graph's longest-path table, as
    ``scan.gated_table`` builds it; the checks read only its length and
    whether it was truncated, so its paths are never walked. ``memo`` maps
    an (end mask, t) pair, the end mask the OR of ``1 << e`` over the
    triple's path ends, to five things: the pendant map, the built
    instance, the exact longest-path length of its graph, the lifts and the
    distances. The lifts map each base path's vertex tuple to its lifted
    ``Path``, whether that is a longest path there, and its BFS distances
    in that graph, one byte per vertex of an int (vertex v in byte v). The
    distances hold those ints by lifted mask, so that lifts over one vertex
    set (possible at t = 0) share a search. ``analyze`` is the base graph's
    analyser, whose per-mask-triple record gives a triple's base f: pass
    the one a caller already keeps for the graph, so that f is computed
    once per triple of path masks. ``holding`` keeps one ``holds`` verdict
    of either claim per tuple of witness values, so equal verdicts are one
    object: read them, never change them. ``path_masks`` maps a base path's
    vertex tuple to its vertex, edge and end masks, which count a triple's
    union for the size bound. Keep one object per base graph.
    """

    def __init__(self, graph: Graph, longest_paths: LongestPathTable,
                 analyze: TripleAnalyzer | None = None):
        self.graph = graph
        self.longest_paths = longest_paths
        self.analyze = TripleAnalyzer(graph) if analyze is None else analyze
        self.memo: dict[
            tuple[int, int],
            tuple[
                dict[int, int],
                SubdividedInstance,
                int,
                dict[tuple[int, ...], tuple[Path, bool, int]],
                dict[int, int],
            ],
        ] = {}
        self.holding: dict[tuple, ClaimVerdict] = {}
        self.path_masks: dict[tuple[int, ...], tuple[int, int, int]] = {}

    def _masks(self, path: Path) -> tuple[int, int, int]:
        masks = self.path_masks.get(path.vertices)
        if masks is None:
            masks = self.path_masks[path.vertices] = _path_masks(path)
        return masks

    def verdicts(
        self, triple: PathTriple, t_values: Iterable[int]
    ) -> Iterator[tuple[ClaimVerdict, ClaimVerdict]]:
        """The triple's ``subdivision_prop`` and ``size_bound`` verdicts at
        each t of ``t_values``, in order. The triple's union is counted once,
        from masks kept once per path, and a ``holds`` size bound is shared
        like a ``holds`` proposition."""
        sizes = union_sizes(triple, self._masks)
        for t in t_values:
            key = ("size_bound", t, sizes)
            bound = self.holding.get(key)
            if bound is None:
                bound = check_size_bound(self.graph, triple, t, sizes)
                if bound.status == HOLDS:
                    self.holding[key] = bound
            yield verify_proposition(self, triple, t), bound


def verify_proposition(subdivisions: Subdivisions, triple: PathTriple, t: int) -> ClaimVerdict:
    """Check by brute force that subdividing scales the instance exactly.

    Three sub-checks on the constructed graph: every lifted path is a
    longest path there (a path of that graph, edge by edge, with its exact
    longest-path length, which ``subdivided_length`` reads off the pendant
    graph), the minimum distance sum equals (t + 1) times the base value,
    and some vertex where it is reached is an original vertex of the base
    graph (an id below ``graph.n``).

    The constructed graph and its length come from the memo of
    ``subdivisions``, filled on the first triple with this end set and t;
    each path is lifted, checked and given its BFS distances in that graph
    once per entry. The three packed distance ints of a triple, summed,
    hold its distance sums one byte per vertex, so the subdivided f is
    their least byte and an original witness one among the first
    ``graph.n``. A ``holds`` verdict is shared with every triple whose
    witness is equal; a ``violated`` one is built for its own triple and
    never stored. A graph that would have more than
    ``DEFAULT_VERIFY_MAX_VERTICES`` vertices (counted before it is built),
    or a length search past ``DEFAULT_VERIFY_BUDGET_S`` seconds, gives
    ``skipped_budget`` rather than a guess, and stores nothing.
    """
    graph = subdivisions.graph
    lp, short = _gate_longest("subdivision_prop", graph, triple.paths, subdivisions.longest_paths)
    if short is not None:
        return short
    base_f = subdivisions.analyze.sets(triple)[0]
    p0, p1, p2 = triple.paths
    v0, v1, v2 = p0.vertices, p1.vertices, p2.vertices
    key = (1 << v0[0] | 1 << v0[-1] | 1 << v1[0] | 1 << v1[-1] | 1 << v2[0] | 1 << v2[-1], t)
    entry = subdivisions.memo.get(key)
    if entry is None:
        # One pendant per distinct end, then t new vertices on every edge:
        # the graph's size is known before it is built.
        ends = key[0].bit_count()
        vertices = graph.n + ends + t * (graph.m + ends)
        if vertices > DEFAULT_VERIFY_MAX_VERTICES:
            return ClaimVerdict(
                "subdivision_prop",
                SKIPPED_BUDGET,
                {"vertices": vertices, "max_vertices": DEFAULT_VERIFY_MAX_VERTICES},
            )
        assert 3 * (vertices - 1) < 256, "distance sums would not fit a byte"
        ext = attach_pendants(graph, triple)
        inst = subdivide(ext.graph, t)
        deadline = time.monotonic() + DEFAULT_VERIFY_BUDGET_S
        try:
            length = subdivided_length(ext.graph, t, deadline=deadline)
        except BudgetError:
            return ClaimVerdict(
                "subdivision_prop", SKIPPED_BUDGET, {"budget_s": DEFAULT_VERIFY_BUDGET_S})
        entry = subdivisions.memo[key] = (ext.pendant_map, inst, length, {}, {})
    pendant_map, inst, sub_length, lifts, distances = entry
    for vs, p in ((v0, p0), (v1, p1), (v2, p2)):
        if vs not in lifts:
            q = _lift(_extend(p, pendant_map), inst.chains)
            adj = inst.graph.adjacency
            dist = distances.get(q.mask)
            if dist is None:
                # The base graph's f, computed first, found it connected, so
                # this graph is too and no distance is missing.
                dist = distances[q.mask] = int.from_bytes(
                    bytes(_distance_list(adj, inst.graph.n, q.mask)), "little")
            # Lifting builds paths of the subdivided graph; the adjacency
            # check still holds the decision to the strength of a
            # longest-path listing.
            lifts[vs] = q, q.length == sub_length and all(
                adj[a] >> b & 1 for a, b in zip(q.vertices, q.vertices[1:])), dist
    (_, m0, d0), (_, m1, d1), (_, m2, d2) = lifts[v0], lifts[v1], lifts[v2]
    # One byte per vertex: a sum of three distances in a graph of at most
    # 86 vertices is under 256, so no byte carries into the next.
    totals = (d0 + d1 + d2).to_bytes(inst.graph.n, "little")
    sub_f = min(totals)
    original_witness = sub_f in totals[:graph.n]
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


def _path_masks(path: Path) -> tuple[int, int, int]:
    # The path's vertex mask, edge mask (edge ab, a < b, at bit
    # b(b - 1)/2 + a, so no vertex count is needed) and end mask.
    vs = path.vertices
    edges = 0
    for a, b in zip(vs, vs[1:]):
        edges |= 1 << (b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b)
    return path.mask, edges, 1 << vs[0] | 1 << vs[-1]


def union_sizes(triple: PathTriple, masks=_path_masks) -> tuple[int, int, int]:
    """The vertex and edge counts of the triple's union, and its number of
    distinct path ends, counted from the paths' masks (``masks`` gives
    them, ``_path_masks`` or a memo of it) without building the union as a
    graph; none of them depends on t."""
    (n0, m0, e0), (n1, m1, e1), (n2, m2, e2) = map(masks, triple.paths)
    return (n0 | n1 | n2).bit_count(), (m0 | m1 | m2).bit_count(), (e0 | e1 | e2).bit_count()


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
