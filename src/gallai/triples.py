"""Core parameters of a three-path set: the minimum summed distance from a
vertex to the three paths (with its witness set), per-path exclusive
vertex counts, per-path crossing counts, and pairwise intersection sizes.

Vertex sets are the paths' bit masks throughout: the counts are ANDs and
``bit_count()``, and only the witness set of ``f_value`` is a frozenset.
All functions here accept arbitrary valid path triples; the claim checkers
layer the longest-path requirement on top where it matters.

Everything but the crossing counts depends only on the three vertex sets,
and a graph's longest paths share few of them (the 19,917 triples of the
seed-1 ``analyze_deep`` benchmark input lie over 68 triples of masks,
counted per graph as the memo keeps them, or 45 distinct ones across its
32 graphs), so a ``TripleAnalyzer`` computes those parameters once per
graph and triple of sets. That record is the one per-graph memo of them:
``analyze`` reads its prop1 statuses off the pairwise sizes, and the
subdivision check its base f; it keeps crossing counts by path index, as
``TripleStream.indices`` walks. ``analyze_triple`` is a one-shot analyser.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb
from typing import Iterator, Sequence

from .graphs import Graph, _distance_list
from .paths import LongestPathTable, Path
from .record import FrozenRecord


class PathTriple(FrozenRecord):
    """Three pairwise-distinct paths of one graph, kept in sorted order.

    The triple is an unordered set; sorting the canonical vertex tuples
    makes iteration and reports deterministic.
    """

    def __init__(self, paths: tuple[Path, Path, Path]):
        ps = tuple(sorted(paths))
        if len(ps) != 3:
            raise ValueError("a path triple needs exactly three paths")
        if len(set(ps)) != 3:
            raise ValueError("paths of a triple must be pairwise distinct")
        self.__dict__["paths"] = ps

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

    def indices(self) -> Iterator[tuple[int, int, int]]:
        """The triples as ``(i, j, k)``, ``i < j < k``, indices into
        ``paths``, up to the cap: the one walk of the stream."""
        for at in islice(combinations(range(len(self.paths)), 3), self.cap):
            self.examined += 1
            yield at

    def at(self, i: int, j: int, k: int) -> PathTriple:
        # The table lists its paths sorted and distinct, so every
        # combination of them is a triple in canonical order.
        return PathTriple._trusted((self.paths[i], self.paths[j], self.paths[k]))

    def __iter__(self):
        return (self.at(*at) for at in self.indices())

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


def _crossings(vertices: tuple[int, ...], mask_a: int, mask_b: int, strict: bool) -> int:
    # Counts the contiguous subpaths Q that meet path a only in one end of
    # Q and path b only in the other. Among the vertices on a or b, such a
    # Q joins two consecutive ones, one only on a and one only on b, or is
    # one vertex on both (not counted when ``strict``).
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


class TripleAnalysis(FrozenRecord):
    """All computed parameters of one triple.

    ``x_sizes`` counts each path's vertices on neither other path, and
    ``pairwise_sizes`` the shared vertices of path pairs (0,1), (0,2),
    (1,2) in that order. ``strict_crossings`` records which crossing
    convention produced ``t_counts`` so reports can flag it.
    """

    def __init__(self, f: int, witnesses: frozenset[int], x_sizes: tuple[int, int, int],
                 t_counts: tuple[int, int, int], pairwise_sizes: tuple[int, int, int],
                 strict_crossings: bool = False):
        self.__dict__.update(f=f, witnesses=witnesses, x_sizes=x_sizes, t_counts=t_counts,
                             pairwise_sizes=pairwise_sizes, strict_crossings=strict_crossings)


class TripleAnalyzer:
    """The parameters of one graph's path triples, called on a triple.

    ``f``, its witnesses, ``x_sizes`` and ``pairwise_sizes`` are computed
    once per triple of path masks, in path order, and shared by every
    triple over the same vertex sets; ``sets`` gives that record alone.
    A path's crossing count also reads its vertex order: ``t_counts`` gives
    a triple's by its indices in ``paths``, once per index and pair of other
    masks, and a call takes them (or counts a triple of no list afresh).
    ``distances`` is the BFS distance dict of ``f_value``, one search a path.
    """

    def __init__(self, graph: Graph, strict_t: bool = False, paths: Sequence[Path] = ()):
        self.graph = graph
        self.strict_t = strict_t
        self.distances: dict[int, list[int]] = {}
        self._by_masks: dict[tuple[int, int, int], tuple] = {}
        self.paths = paths
        self.masks = [p.mask for p in paths]
        self._t_counts: dict[tuple[int, int, int], int] = {}

    def __call__(self, triple: PathTriple, t_counts: tuple | None = None) -> TripleAnalysis:
        f, witnesses, x_sizes, pairwise_sizes = self.sets(triple)
        if t_counts is None:  # a triple of no path list: counted afresh
            t_counts = TripleAnalyzer(self.graph, self.strict_t, triple.paths).t_counts(0, 1, 2)
        analysis = object.__new__(TripleAnalysis)  # as __init__ does, without the call
        analysis.__dict__.update(f=f, witnesses=witnesses, x_sizes=x_sizes, t_counts=t_counts,
                                 pairwise_sizes=pairwise_sizes, strict_crossings=self.strict_t)
        return analysis

    def sets(self, triple: PathTriple) -> tuple:
        """``(f, witnesses, x_sizes, pairwise_sizes)``: the parameters of
        the triple's three vertex sets, computed once per triple of masks."""
        p0, p1, p2 = triple.paths
        key = m0, m1, m2 = p0.mask, p1.mask, p2.mask
        sets = self._by_masks.get(key)
        if sets is not None:
            return sets
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
        sets = self._by_masks[key] = f, witnesses, x_sizes, pairwise_sizes
        return sets

    def t_counts(self, i: int, j: int, k: int) -> tuple[int, int, int]:
        """The crossing counts of ``paths[i]``, ``paths[j]`` and
        ``paths[k]``, each between the other two."""
        masks, memo = self.masks, self._t_counts
        mi, mj, mk = masks[i], masks[j], masks[k]
        keys = a, b, c = (i, mj, mk), (j, mi, mk), (k, mi, mj)
        try:
            return memo[a], memo[b], memo[c]
        except KeyError:
            for key in keys:
                if key not in memo:
                    p, mask_a, mask_b = key
                    memo[key] = _crossings(self.paths[p].vertices, mask_a, mask_b, self.strict_t)
            return memo[a], memo[b], memo[c]


def analyze_triple(
    graph: Graph, triple: PathTriple, *, strict_t: bool = False
) -> TripleAnalysis:
    """Compute every triple parameter at once: a one-shot ``TripleAnalyzer``."""
    return TripleAnalyzer(graph, strict_t)(triple)
