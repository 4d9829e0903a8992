"""Core parameters of a three-path set: the minimum summed distance from a
vertex to the three paths (with its witness set), per-path exclusive
vertex counts, per-path crossing counts, and pairwise intersection sizes.

Vertex sets are the paths' bit masks throughout: the counts are ANDs and
``bit_count()``, and only the witness set of ``f_value`` is a frozenset.
All functions here accept arbitrary valid path triples; the claim checkers
layer the longest-path requirement on top where it matters.

Everything but the crossing counts depends only on the three vertex sets,
and a graph's longest paths share few of them (the 19,917 triples of the
``analyze_deep`` benchmark input lie over 55 sets of three), so a
``TripleAnalyzer`` computes those parameters once per graph and triple of
sets. ``analyze_triple`` is a one-shot analyser.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from .graphs import Graph, _distance_list
from .paths import LongestPathTable, Path


@dataclass(frozen=True)
class PathTriple:
    """Three pairwise-distinct paths of one graph, kept in sorted order.

    The triple is an unordered set; sorting the canonical vertex tuples
    makes iteration and reports deterministic.
    """

    paths: tuple[Path, Path, Path]

    def __post_init__(self):
        ps = tuple(sorted(self.paths))
        if len(ps) != 3:
            raise ValueError("a path triple needs exactly three paths")
        if len(set(ps)) != 3:
            raise ValueError("paths of a triple must be pairwise distinct")
        object.__setattr__(self, "paths", ps)

    @classmethod
    def make(cls, graph: Graph, p1, p2, p3) -> "PathTriple":
        """Validated construction from vertex sequences or ``Path`` objects."""
        paths = tuple(
            Path.make(graph, p.vertices if isinstance(p, Path) else p)
            for p in (p1, p2, p3)
        )
        return cls(paths)  # type: ignore[arg-type]

    @classmethod
    def _trusted(cls, paths: tuple[Path, Path, Path]) -> "PathTriple":
        # For paths already sorted and distinct, as in a table's walk.
        triple = object.__new__(cls)
        triple.__dict__["paths"] = paths
        return triple

    def __iter__(self):
        return iter(self.paths)


class TripleStream:
    """The path triples of a longest-path set, lazily, in canonical order.

    Iteration stops after ``cap`` triples when one is given. ``total`` is
    the number of triples in the set and ``examined`` the number yielded so
    far, so ``skipped`` stays right when the consumer stops early.
    """

    def __init__(self, longest_paths: LongestPathTable, cap: int | None = None):
        self.paths = longest_paths.paths
        self.total = comb(len(self.paths), 3)
        self.cap = cap
        self.examined = 0

    @property
    def skipped(self) -> int:
        return self.total - self.examined

    def __iter__(self):
        # The table lists its paths sorted and distinct, so every
        # combination of them is a triple in canonical order.
        for combo in islice(combinations(self.paths, 3), self.cap):
            self.examined += 1
            yield PathTriple._trusted(combo)

    def __getitem__(self, index: int) -> PathTriple:
        """The triple at ``index`` in canonical order, found by counting
        rather than by stepping past every triple before it."""
        if not 0 <= index < self.total:
            raise IndexError(f"triple index {index} out of range 0..{self.total - 1}")
        picks = []
        pos = 0
        for size in (3, 2, 1):
            # Skip whole blocks: comb(rest, size - 1) triples pick paths[pos] next.
            while index >= (block := comb(len(self.paths) - pos - 1, size - 1)):
                index -= block
                pos += 1
            picks.append(self.paths[pos])
            pos += 1
        return PathTriple._trusted(tuple(picks))


def f_value(
    graph: Graph, triple: PathTriple, distances: dict[int, list[int]] | None = None
) -> tuple[int, frozenset[int]]:
    """The minimum distance sum over all vertices and its full argmin set.

    Computed via one multi-source BFS per path, summed per vertex. Zero
    exactly when the three paths share a vertex, in which case the witness
    set is that common intersection. ``distances`` maps a path's vertex
    mask to its BFS distance list in ``graph``; it is read, and filled
    with the lists computed here, so a caller that keeps one per graph
    searches each path once.
    """
    if distances is None:
        distances = {}
    dists = []
    for p in triple.paths:
        dv = distances.get(p.mask)
        if dv is None:
            dv = _distance_list(graph.adjacency, graph.n, p.mask)
            if None in dv:
                raise ValueError("graph is disconnected; distance sums are undefined")
            distances[p.mask] = dv
        dists.append(dv)
    totals = [a + b + c for a, b, c in zip(*dists)]
    best = min(totals)
    return best, frozenset(v for v, total in enumerate(totals) if total == best)


def t_count(triple: PathTriple, which: int, *, strict: bool = False) -> int:
    """Number of crossings of the other two paths along the selected path.

    Counts contiguous subpaths Q of ``paths[which]`` that meet the first
    other path exactly in one end of Q and the second other path exactly in
    the other end. A single-vertex Q qualifies when that vertex lies on
    both other paths; pass ``strict=True`` to require at least two vertices
    instead (the alternative crossing convention).

    One pass over the selected path's vertices that lie on either other
    path: such a Q is two consecutive ones, one only on the first other
    path and one only on the second, or one vertex on both.
    """
    if which not in (0, 1, 2):
        raise IndexError(f"path index {which} out of range 0..2")
    mask_a, mask_b = (p.mask for k, p in enumerate(triple.paths) if k != which)
    return _crossings(triple.paths[which].vertices, mask_a, mask_b, strict)


def _crossings(vertices: tuple[int, ...], mask_a: int, mask_b: int, strict: bool) -> int:
    count = 0
    last = 0  # 1 only on a, 2 only on b, 3 on both
    for v in vertices:
        side = (mask_a >> v & 1) | (mask_b >> v & 1) << 1
        if side:
            if side == 3:
                count += not strict
            elif last ^ side == 3:
                count += 1
            last = side
    return count


@dataclass(frozen=True)
class TripleAnalysis:
    """All computed parameters of one triple.

    ``x_sizes`` counts each path's vertices on neither other path, and
    ``pairwise_sizes`` the shared vertices of path pairs (0,1), (0,2),
    (1,2) in that order. ``strict_crossings`` records which crossing
    convention produced ``t_counts`` so reports can flag it.
    """

    f: int
    witnesses: frozenset[int]
    x_sizes: tuple[int, int, int]
    t_counts: tuple[int, int, int]
    pairwise_sizes: tuple[int, int, int]
    strict_crossings: bool = False


class TripleAnalyzer:
    """The parameters of one graph's path triples, called on a triple.

    ``f``, its witnesses, ``x_sizes`` and ``pairwise_sizes`` are computed
    once per triple of path masks, in path order, and shared by every
    triple over the same vertex sets. A path's crossing count also reads
    its vertex order, so it is counted once per path and pair of other
    masks. ``distances`` is the BFS distance dict of ``f_value``: pass one
    already kept for the graph (as ``Subdivisions.distances`` is) so that
    each path is searched once.
    """

    def __init__(
        self,
        graph: Graph,
        strict_t: bool = False,
        distances: dict[int, list[int]] | None = None,
    ):
        self.graph = graph
        self.strict_t = strict_t
        self.distances = {} if distances is None else distances
        self._by_masks: dict[tuple[int, int, int], tuple] = {}
        self._t_counts: dict[tuple[tuple[int, ...], int, int], int] = {}

    def __call__(self, triple: PathTriple) -> TripleAnalysis:
        p0, p1, p2 = triple.paths
        key = m0, m1, m2 = p0.mask, p1.mask, p2.mask
        sets = self._by_masks.get(key)
        if sets is None:
            sets = self._by_masks[key] = self._set_parameters(triple, m0, m1, m2)
        f, witnesses, x_sizes, pairwise_sizes = sets
        t = self._t
        t_counts = (t(p0.vertices, m1, m2), t(p1.vertices, m0, m2), t(p2.vertices, m0, m1))
        return TripleAnalysis(f, witnesses, x_sizes, t_counts, pairwise_sizes, self.strict_t)

    def _t(self, vertices: tuple[int, ...], mask_a: int, mask_b: int) -> int:
        key = (vertices, mask_a, mask_b)
        count = self._t_counts.get(key)
        if count is None:
            count = self._t_counts[key] = _crossings(vertices, mask_a, mask_b, self.strict_t)
        return count

    def _set_parameters(self, triple: PathTriple, m0: int, m1: int, m2: int) -> tuple:
        f, witnesses = f_value(self.graph, triple, self.distances)
        common = m0 & m1 & m2
        # f vanishes exactly when the triple has a common vertex, and then
        # the witnesses are the common vertices.
        assert (f == 0) == bool(common), (f, common)
        assert f or common == sum(1 << w for w in witnesses), (witnesses, common)
        x_sizes = (
            (m0 & ~(m1 | m2)).bit_count(),
            (m1 & ~(m0 | m2)).bit_count(),
            (m2 & ~(m0 | m1)).bit_count(),
        )
        pairwise_sizes = ((m0 & m1).bit_count(), (m0 & m2).bit_count(), (m1 & m2).bit_count())
        return f, witnesses, x_sizes, pairwise_sizes


def analyze_triple(
    graph: Graph, triple: PathTriple, *, strict_t: bool = False
) -> TripleAnalysis:
    """Compute every triple parameter at once: a one-shot ``TripleAnalyzer``."""
    return TripleAnalyzer(graph, strict_t)(triple)
