"""Exact longest-path search: the length, and a memoised completion table
that counts the longest paths, intersects them and lists them.

Two depth-first searches extend paths from every start vertex in
ascending vertex order:

* ``longest_path_length`` finds ``l`` by branch and bound: it drops a
  partial path when its length plus the number of unused vertices still
  reachable from its head cannot beat the best length found so far. It
  starts only at vertices that are not cut vertices, since a maximum path
  never ends at one, and follows a head with one way on in a loop, testing
  the bound once per branch: along such a chain the bound cannot change.
* ``LongestPathTable`` searches again toward ``l`` edges, memoised on the
  partial path's (head, vertex set). Each state stores how many ways it
  completes and the AND of the vertex masks the completions add, so the
  table gives the number of longest paths and their common vertices (the
  Gallai set) without listing a single path. Under a cap the search stops
  once more than ``cap`` paths are certain, which bounds it on dense
  graphs; without a cap it raises ``ValueError`` past
  ``MAX_UNCAPPED_STATES`` (~50 MB). Its ``paths`` walks the table on first
  use, entering only branches that complete, so it lists the paths in
  sorted order; a truncated table lists none, since every verdict needs
  the complete set. ``enumerate_longest_paths`` returns a table with its
  paths listed.

The length search recurses once per branching vertex on a path, the
table and its walk once per path edge; a search that would go deeper than
Python's recursion limit raises ``ValueError`` instead.

Both prunes are lossless. The tests hold the table and the walk to an
all-simple-paths oracle with neither prune and no memo, on exhaustive
small corpora and random graphs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .graphs import Graph

DEFAULT_PATH_CAP = 100_000
MAX_UNCAPPED_STATES = 250_000


class BudgetError(RuntimeError):
    """Raised when an exact search exceeds its wall-clock deadline."""


class _StopSearch(Exception):
    pass


def _too_deep(n: int) -> ValueError:
    # Raised where a search starts, so that its loops stay as they are.
    return ValueError(f"a longest-path search on {n} vertices goes deeper than "
                      f"Python's recursion limit ({sys.getrecursionlimit()})")


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

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], mask: int) -> "Path":
        # For a walk's paths: already distinct, canonically oriented, masked.
        path = object.__new__(cls)
        path.__dict__.update(vertices=vertices, mask=mask)
        return path

    @property
    def length(self) -> int:
        """Edge count, i.e. one less than the vertex count."""
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @cached_property
    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    def __repr__(self) -> str:
        return f"Path({list(self.vertices)})"


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


def _check_deadline(deadline: float | None, ticks: int) -> None:
    # Checked on the first node and every 256 thereafter.
    if deadline is not None and ticks & 255 == 0 and time.monotonic() > deadline:
        raise BudgetError("exact path search exceeded its time budget")


def _cut_vertices(adj: tuple[int, ...]) -> int:
    """Mask of the cut vertices: those whose removal splits their component.

    Hopcroft and Tarjan's low points, from a depth-first search kept on an
    explicit stack. A vertex's low point may take its parent's number
    through the tree edge; that never makes ``low >= order`` false.
    """
    n = len(adj)
    order = [0] * n  # discovery number from 1; 0 while undiscovered
    low = [0] * n
    cuts = 0
    count = 0
    for root in range(n):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        children = 0
        stack = [(root, adj[root])]
        while stack:
            v, rest = stack[-1]
            if rest:
                bit = rest & -rest
                stack[-1] = (v, rest ^ bit)
                w = bit.bit_length() - 1
                if order[w]:
                    low[v] = min(low[v], order[w])
                else:
                    count += 1
                    order[w] = low[w] = count
                    stack.append((w, adj[w]))
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if u == root:
                    children += 1
                elif low[v] >= order[u]:
                    cuts |= 1 << u
        if children > 1:
            cuts |= 1 << root
    return cuts


def longest_path_length(graph: Graph, *, deadline: float | None = None) -> int:
    """Exact maximum edge count over all simple paths.

    Disconnected graphs are allowed; the maximum ranges over components.
    """
    adj = graph.adjacency
    n = graph.n
    best = 0
    ticks = 0

    def dfs(head: int, used: int, length: int) -> None:
        # Entered at a start or just past a branch. The bound is tested
        # once, here: along a chain of forced steps the unused vertices
        # reachable from the head and the edges needed to beat ``best``
        # both fall by one per step, so a test further on would agree.
        nonlocal best, ticks
        ext = adj[head] & ~used
        if ext:
            _check_deadline(deadline, ticks)
            ticks += 1
            if not _reaches(adj, ext, used, best - length + 1):
                return
        while ext and not ext & (ext - 1):  # one way on: take it
            used |= ext
            head = ext.bit_length() - 1
            length += 1
            ext = adj[head] & ~used
        if length > best:
            best = length
        while ext:
            low = ext & -ext
            ext ^= low
            dfs(low.bit_length() - 1, used | low, length + 1)

    # A maximum path cannot end at a cut vertex: the path minus that end
    # lies on one side of it, and a neighbour on another side extends it.
    cuts = _cut_vertices(adj)
    try:
        for start in range(n):
            if not cuts >> start & 1:
                dfs(start, 1 << start, 0)
                if best == n - 1:
                    break
    except RecursionError:
        raise _too_deep(n) from None
    finally:
        # The closure refers to itself; dropping the name frees it, and all
        # it holds, with this call rather than at the next cyclic GC.
        del dfs
    return best


class LongestPathTable:
    """One graph's longest paths, counted and intersected without being
    listed, and listed on first use of ``paths``.

    Construction finds ``length`` and fills the completion table: the
    search toward ``length`` edges from every start vertex, memoised on the
    partial path's head and vertex set. A state's entry is
    ``(count, core)``: the number of ways to extend a path over ``used``
    that ends at ``head`` to ``length`` edges, and the AND of the vertex
    masks those extensions add. ``count`` is then the number of longest
    paths (reversal-free) and ``core`` the mask of the vertices on all of
    them.

    A state's count is a lower bound on the number of directed longest
    paths, so with a ``cap`` the fill stops as soon as more than ``cap``
    paths are certain: ``truncated`` is set, ``count`` and ``core`` are
    None, ``paths`` is empty, and the work stays bounded on dense graphs
    however many paths they have.
    """

    def __init__(
        self, graph: Graph, cap: int | None = None, *, deadline: float | None = None
    ):
        if cap is not None and cap < 1:
            raise ValueError("cap must be at least 1")
        n = graph.n
        self.cap = cap
        self.length = longest_path_length(graph, deadline=deadline)
        self.truncated = False
        self._adj = graph.adjacency
        self._n = n
        self._deadline = deadline
        self._ticks = 0
        # Entries keyed ``used * n + head``. Every state that completes has
        # one, so in a table that lists anything a missing entry means no
        # completion.
        self._table: dict[int, tuple[int, int]] = {}
        # Directed paths: each undirected one is counted from both ends.
        self._limit = float("inf") if cap is None else 2 * cap
        if self.length == 0:
            # Every vertex is a longest path by itself.
            count, core = n, (1 << n) - 1 if n < 2 else 0
            self.truncated = cap is not None and n > cap
        else:
            directed = 0
            core = (1 << n) - 1
            try:
                for start in range(n):
                    c, k = self._fill(start, 1 << start, self.length)
                    if c:
                        directed += c
                        core &= k | 1 << start
                        if directed > self._limit:
                            raise _StopSearch
            except _StopSearch:
                self.truncated = True
            except RecursionError:
                raise _too_deep(n) from None
            count = directed // 2
        self.count = None if self.truncated else count
        self.core = None if self.truncated else core

    def _fill(self, head: int, used: int, need: int) -> tuple[int, int]:
        # Raises _StopSearch once the state's count passes the limit.
        adj = self._adj
        ext = adj[head] & ~used
        if need == 1:
            count = ext.bit_count()
            return count, ext if count == 1 else 0
        key = used * self._n + head
        table = self._table
        entry = table.get(key)
        if entry is not None:
            return entry
        ticks = self._ticks
        self._ticks += 1
        if ticks & 255 == 0:  # the first state and every 256th after it
            _check_deadline(self._deadline, ticks)
            if self.cap is None and ticks >= MAX_UNCAPPED_STATES:
                raise ValueError(f"uncapped table past {MAX_UNCAPPED_STATES} states")
        count = 0
        core = -1
        # A state with one way on takes it; at a branch, the reachability
        # prune first checks that enough unused vertices remain to finish.
        if ext & (ext - 1) == 0 or _reaches(adj, ext, used, need):
            m = ext
            while m:
                low = m & -m
                m ^= low
                c, k = self._fill(low.bit_length() - 1, used | low, need - 1)
                if c:
                    count += c
                    core &= k | low
                    if count > self._limit:
                        raise _StopSearch
        if count:
            entry = table[key] = (count, core)
            return entry
        # Most states of a sparse graph are dead ends on a chain of
        # degree-2 vertices. Only a dead end that branches is worth an
        # entry; a chain is cheap to follow again.
        if ext & (ext - 1):
            table[key] = (0, 0)
        return 0, 0

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        """Every longest path, in sorted order, walked from the table on
        first use: branches are entered in ascending vertex order, and only
        if they complete. Empty when the table is truncated."""
        if self.truncated:
            return ()
        n = self._n
        target = self.length
        if target == 0:
            return tuple(Path((v,)) for v in range(n))
        adj = self._adj
        deadline = self._deadline
        table = self._table
        found: list[Path] = []

        def walk(head: int, used: int, need: int, seq: list[int]) -> None:
            _check_deadline(deadline, self._ticks)
            self._ticks += 1
            m = adj[head] & ~used
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                if need == 1:
                    # Each undirected path completes once, from its smaller end.
                    if seq[0] < v:
                        found.append(Path._trusted((*seq, v), used | low))
                # A state one edge short has no entry and is simply tried.
                elif need == 2 or table.get((used | low) * n + v, (0, 0))[0]:
                    seq.append(v)
                    walk(v, used | low, need - 1, seq)
                    seq.pop()

        try:
            for start in range(n):
                if target == 1 or table.get((1 << start) * n + start, (0, 0))[0]:
                    walk(start, 1 << start, target, [start])
        except RecursionError:
            raise _too_deep(n) from None
        finally:
            del walk  # the closure cycle again, as in longest_path_length
        return tuple(found)


def enumerate_longest_paths(
    graph: Graph, cap: int = DEFAULT_PATH_CAP, *, deadline: float | None = None
) -> LongestPathTable:
    """The graph's longest-path table with its ``paths`` listed: every
    longest path, deduplicated under reversal, in sorted order, or none
    when more than ``cap`` exist and the table is ``truncated``."""
    table = LongestPathTable(graph, cap, deadline=deadline)
    table.paths  # walked here, within this call's deadline and timing
    return table
