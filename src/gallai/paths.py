"""Exact longest-path search: length optimisation, full enumeration of the
longest-path set, and a naive all-simple-paths oracle.

The searcher is a depth-first extension from every start vertex with one
admissible prune: the current length plus the number of unused vertices
still reachable from the head can never beat the incumbent. The prune is
lossless, and the unpruned oracle below exists to prove that on exhaustive
small corpora.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .graphs import Graph, reachable_mask

DEFAULT_PATH_CAP = 100_000


class BudgetError(RuntimeError):
    """Raised when an exact search exceeds its wall-clock deadline."""


class _StopSearch(Exception):
    pass


@dataclass(frozen=True, order=True)
class Path:
    """Simple path stored as a vertex tuple, canonical under reversal.

    A path and its reversal are the same object; construction keeps
    whichever orientation is lexicographically smaller. Single-vertex
    paths are allowed.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        if not vs:
            raise ValueError("path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise ValueError("path vertices must be distinct")
        rev = vs[::-1]
        if rev < vs:
            vs = rev
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def make(cls, graph: Graph, vertices) -> "Path":
        """Validated construction: every vertex in range, consecutive
        vertices adjacent in ``graph``."""
        vs = tuple(vertices)
        for v in vs:
            if not 0 <= v < graph.n:
                raise ValueError(f"vertex {v} out of range")
        for a, b in zip(vs, vs[1:]):
            if not graph.has_edge(a, b):
                raise ValueError(f"vertices {a} and {b} are not adjacent")
        return cls(vs)

    @property
    def length(self) -> int:
        """Edge count, i.e. one less than the vertex count."""
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    def __repr__(self) -> str:
        return f"Path({list(self.vertices)})"


def subpath(path: Path, u: int, v: int) -> Path:
    """The contiguous segment of ``path`` between ``u`` and ``v`` inclusive."""
    try:
        i = path.vertices.index(u)
        j = path.vertices.index(v)
    except ValueError:
        raise ValueError(f"vertices {u} and {v} must both lie on the path") from None
    if i > j:
        i, j = j, i
    return Path(path.vertices[i:j + 1])


@dataclass
class LongestPathSet:
    """The exact longest-path length and every longest path, reversal-free.

    ``truncated`` is set when enumeration hit its cap; in that case exactly
    ``cap`` paths are present and downstream consumers must refuse to draw
    conclusions from the set.
    """

    length: int
    paths: tuple[Path, ...]
    truncated: bool = False

    @cached_property
    def path_set(self) -> frozenset[Path]:
        return frozenset(self.paths)

    def __contains__(self, path: Path) -> bool:
        return path in self.path_set

    def __len__(self) -> int:
        return len(self.paths)


def _check_deadline(deadline: float | None, ticks: int) -> None:
    # Checked on the first node and every 256 thereafter.
    if deadline is not None and ticks & 255 == 0 and time.monotonic() > deadline:
        raise BudgetError("exact path search exceeded its time budget")


def longest_path_length(graph: Graph, *, deadline: float | None = None) -> int:
    """Exact maximum edge count over all simple paths.

    Disconnected graphs are allowed; the maximum ranges over components.
    """
    adj = graph.adjacency
    n = graph.n
    best = 0
    ticks = 0

    def dfs(head: int, used: int, length: int) -> None:
        nonlocal best, ticks
        if length > best:
            best = length
        ext = adj[head] & ~used
        if not ext:
            return
        _check_deadline(deadline, ticks)
        ticks += 1
        gain = reachable_mask(adj, ext, used).bit_count()
        if length + gain <= best:
            return
        m = ext
        while m:
            low = m & -m
            m ^= low
            dfs(low.bit_length() - 1, used | low, length + 1)

    for start in range(n):
        dfs(start, 1 << start, 0)
        if best == n - 1:
            break
    return best


def enumerate_longest_paths(
    graph: Graph,
    cap: int = DEFAULT_PATH_CAP,
    *,
    deadline: float | None = None,
) -> LongestPathSet:
    """All longest paths of the graph, deduplicated under reversal.

    If more than ``cap`` longest paths exist, exactly ``cap`` are returned
    and the result is flagged ``truncated`` rather than erroring.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = graph.n
    target = longest_path_length(graph, deadline=deadline)
    if target == 0:
        paths = tuple(Path((v,)) for v in range(min(n, cap)))
        return LongestPathSet(0, paths, truncated=n > cap)

    adj = graph.adjacency
    found: set[tuple[int, ...]] = set()
    ticks = 0

    def dfs(head: int, used: int, seq: list[int]) -> None:
        nonlocal ticks
        if len(seq) - 1 == target:
            # Each undirected path completes once, from its smaller end.
            if seq[0] < head:
                if len(found) == cap:
                    raise _StopSearch
                found.add(tuple(seq))
            return
        ext = adj[head] & ~used
        if not ext:
            return
        _check_deadline(deadline, ticks)
        ticks += 1
        needed = target - (len(seq) - 1)
        if reachable_mask(adj, ext, used).bit_count() < needed:
            return
        m = ext
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            seq.append(v)
            dfs(v, used | low, seq)
            seq.pop()

    truncated = False
    try:
        for start in range(n):
            dfs(start, 1 << start, [start])
    except _StopSearch:
        truncated = True
    paths = tuple(sorted(Path(t) for t in found))
    return LongestPathSet(target, paths, truncated)


def enumerate_all_simple_paths(graph: Graph) -> tuple[Path, ...]:
    """Every simple path of the graph (single vertices included), canonical
    and reversal-free, in sorted order.

    No pruning whatsoever; exponential in the graph size. This is the
    independent correctness oracle for the pruned enumerator and is meant
    for graphs of roughly ten vertices or fewer.
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

    for start in range(graph.n):
        dfs(start, 1 << start, [start])
    return tuple(sorted(Path(t) for t in out))
