"""Core parameters of a three-path set: the minimum summed distance from a
vertex to the three paths (with its witness set), per-path exclusive
vertices, per-path crossing counts, and pairwise intersections.

All functions here accept arbitrary valid path triples; the claim checkers
layer the longest-path requirement on top where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from .graphs import Graph, _distance_list
from .paths import LongestPathSet, Path


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

    def __iter__(self):
        return iter(self.paths)

    def others(self, which: int) -> tuple[Path, Path]:
        """The two paths other than ``paths[which]``."""
        if which not in (0, 1, 2):
            raise IndexError(f"path index {which} out of range 0..2")
        rest = [p for i, p in enumerate(self.paths) if i != which]
        return rest[0], rest[1]


class TripleStream:
    """The path triples of a longest-path set, lazily, in canonical order.

    Iteration stops after ``cap`` triples when one is given. ``total`` is
    the number of triples in the set and ``examined`` the number yielded so
    far, so ``skipped`` stays right when the consumer stops early.
    """

    def __init__(self, longest_paths: LongestPathSet, cap: int | None = None):
        self.paths = longest_paths.paths
        self.total = comb(len(self.paths), 3)
        self.cap = cap
        self.examined = 0

    @property
    def skipped(self) -> int:
        return self.total - self.examined

    def __iter__(self):
        for combo in islice(combinations(self.paths, 3), self.cap):
            self.examined += 1
            yield PathTriple(combo)

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
        return PathTriple(tuple(picks))


def f_value(graph: Graph, triple: PathTriple) -> tuple[int, frozenset[int]]:
    """The minimum distance sum over all vertices and its full argmin set.

    Computed via one multi-source BFS per path, summed per vertex. Zero
    exactly when the three paths share a vertex, in which case the witness
    set is that common intersection.
    """
    n = graph.n
    adj = graph.adjacency
    dists = [_distance_list(adj, n, p.mask) for p in triple.paths]
    best: int | None = None
    witnesses: list[int] = []
    for v in range(n):
        total = 0
        for dv in dists:
            d = dv[v]
            if d is None:
                raise ValueError("graph is disconnected; distance sums are undefined")
            total += d
        if best is None or total < best:
            best = total
            witnesses = [v]
        elif total == best:
            witnesses.append(v)
    assert best is not None
    return best, frozenset(witnesses)


def exclusive_vertices(triple: PathTriple, which: int) -> frozenset[int]:
    """Vertices of the selected path lying on neither of the other two."""
    a, b = triple.others(which)
    return triple.paths[which].vertex_set() - a.vertex_set() - b.vertex_set()


def pairwise_intersection(triple: PathTriple, i: int, j: int) -> frozenset[int]:
    """Vertex intersection of two distinct paths of the triple."""
    if i == j:
        raise ValueError("pairwise intersection needs two distinct indices")
    for k in (i, j):
        if k not in (0, 1, 2):
            raise IndexError(f"path index {k} out of range 0..2")
    return triple.paths[i].vertex_set() & triple.paths[j].vertex_set()


def t_count(triple: PathTriple, which: int, *, strict: bool = False) -> int:
    """Number of crossings of the other two paths along the selected path.

    Counts contiguous subpaths Q of ``paths[which]`` that meet the first
    other path exactly in one end of Q and the second other path exactly in
    the other end. A single-vertex Q qualifies when that vertex lies on
    both other paths; pass ``strict=True`` to require at least two vertices
    instead (the alternative crossing convention).

    Runs the full quadratic scan over subpaths with incremental membership
    counters; clarity over cleverness at these sizes.
    """
    a, b = triple.others(which)
    set_a = a.vertex_set()
    set_b = b.vertex_set()
    seq = triple.paths[which].vertices
    count = 0
    for i in range(len(seq)):
        in_a = 0
        in_b = 0
        first_a = seq[i] in set_a
        first_b = seq[i] in set_b
        for j in range(i, len(seq)):
            v = seq[j]
            if v in set_a:
                in_a += 1
            if v in set_b:
                in_b += 1
            if in_a > 1 and in_b > 1:
                break
            if strict and i == j:
                continue
            if in_a == 1 and in_b == 1:
                last_a = v in set_a
                last_b = v in set_b
                if (first_a and last_b) or (last_a and first_b):
                    count += 1
    return count


@dataclass(frozen=True)
class TripleAnalysis:
    """All computed parameters of one triple.

    ``pairwise`` holds the vertex intersections for path pairs (0,1),
    (0,2), (1,2) in that order. ``strict_crossings`` records which crossing
    convention produced ``t_counts`` so reports can flag it.
    """

    f: int
    witnesses: frozenset[int]
    x_sizes: tuple[int, int, int]
    t_counts: tuple[int, int, int]
    pairwise: tuple[frozenset[int], frozenset[int], frozenset[int]]
    strict_crossings: bool = False


def analyze_triple(
    graph: Graph, triple: PathTriple, *, strict_t: bool = False
) -> TripleAnalysis:
    """Compute every triple parameter at once."""
    f, witnesses = f_value(graph, triple)
    x_sizes = tuple(len(exclusive_vertices(triple, k)) for k in range(3))
    t_counts = tuple(t_count(triple, k, strict=strict_t) for k in range(3))
    pairwise = tuple(
        pairwise_intersection(triple, i, j) for i, j in ((0, 1), (0, 2), (1, 2))
    )
    common = pairwise[0] & triple.paths[2].vertex_set()
    # f vanishes exactly when the triple has a common vertex.
    assert (f == 0) == bool(common), (f, common)
    if common:
        assert common <= witnesses
    return TripleAnalysis(f, witnesses, x_sizes, t_counts, pairwise, strict_t)
