"""Exact longest-path search: a table that finds the longest-path length,
counts the longest paths, intersects them and lists them.

Three searches serve ``LongestPathTable``:

* The forward count answers the table on every graph that fits its
  budget. It extends all paths one edge per layer, counting the directed
  paths per (vertex set, head) state, so the last non-empty layer gives
  the length ``l``, the number of longest paths and their common vertices
  (the Gallai set) in one pass, without listing a path or recursing. At
  the middle layer it joins pairs of half paths into Hamiltonian paths, so
  a graph that has one stops there. It gives up past ``FORWARD_STATES``
  states, which K11 fits. A count that answers keeps its layers, and
  ``paths`` lists from them on first use: it walks back from each state
  of the last layer, or from both halves of each pair the join counted.
* Past the forward budget the depth-first fill answers the table: it
  searches toward ``l`` edges from every start vertex in ascending order,
  memoised on the partial path's (head, vertex set), and each state
  stores how many ways it completes and the AND of the vertex masks the
  completions add. Under a cap it stops once more than ``cap`` paths are
  certain, which bounds it on dense graphs; without a cap it raises
  ``ValueError`` past ``MAX_UNCAPPED_STATES`` (~50 MB). ``paths`` then
  walks its table, entering only branches that complete. A truncated
  table lists no paths, since every verdict needs the complete set.
  ``enumerate_longest_paths`` returns a table with its paths listed.
* ``longest_path_length`` finds ``l`` by branch and bound for the fill
  past the forward budget. ``subdivision.subdivided_length`` runs the same
  search, ``_longest_length``, scoring a path of k edges ``(t + 1) * k``
  plus at most 2t for its ends; t = 0 scores the length. It drops a
  partial path when k plus the unused vertices still reachable from its
  head cannot beat the best score so far. It starts only at vertices that
  are not cut vertices, since a maximum path never ends at one, follows a
  head with one way on in a loop, tests the bound once per branch (along
  such a chain it cannot change), scores only dead ends, and stops at a
  score no path beats: with d vertices of degree at most 1, of which a
  path holds j = min(2, d) at most, and only as ends with no edge off it,
  ``(t + 1) * (n - 1 - d + j) + t * (2 - j)``.

The length search recurses once per branching vertex on a path, the fill
and the walks once per path edge; a search that would go deeper than
Python's recursion limit raises ``ValueError`` instead.

Both prunes are lossless. The tests hold the table by either route and
the walk to an all-simple-paths oracle with no prune and no memo, on
exhaustive small corpora and random graphs.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property
from typing import Iterator

from .graphs import Graph, _reaches, iter_bits
from .record import FrozenRecord

DEFAULT_PATH_CAP = 100_000
MAX_UNCAPPED_STATES = 250_000
# States the forward count may build before the depth-first route takes
# over. K11 (11 * 2^10 states) fits. A graph past it has already paid for
# those states; a larger budget cost the dense graphs that the capped fill
# answers in a few milliseconds more than it saved on sparser ones.
FORWARD_STATES = 1 << 14


class BudgetError(RuntimeError):
    """Raised when an exact search exceeds its wall-clock deadline."""


class _StopSearch(Exception):
    pass


def _too_deep(n: int) -> ValueError:
    # Raised where a search starts, so that its loops stay as they are.
    return ValueError(f"a longest-path search on {n} vertices goes deeper than "
                      f"Python's recursion limit ({sys.getrecursionlimit()})")


class Path(FrozenRecord):
    """Simple path stored as a vertex tuple, canonical under reversal.

    A path and its reversal are the same object; construction keeps
    whichever orientation is lexicographically smaller. Single-vertex
    paths are allowed. Paths compare, order and hash as ``(vertices,)``.
    """

    def __init__(self, vertices: tuple[int, ...]):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise ValueError("path vertices must be distinct")
        rev = vs[::-1]
        self.__dict__["vertices"] = rev if rev < vs else vs

    # A cached mask is not a field, so these read the vertices alone.
    def __eq__(self, other):
        return self.vertices == other.vertices if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices,))

    def __lt__(self, other):
        return self.vertices < other.vertices if type(other) is type(self) else NotImplemented

    def __le__(self, other):
        return self.vertices <= other.vertices if type(other) is type(self) else NotImplemented

    def __gt__(self, other):
        return self.vertices > other.vertices if type(other) is type(self) else NotImplemented

    def __ge__(self, other):
        return self.vertices >= other.vertices if type(other) is type(self) else NotImplemented

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
    return _longest_length(graph.adjacency, 0, deadline)


def _longest_length(adj: tuple[int, ...], t: int, deadline: float | None) -> int:
    """The maximum of ``(t + 1) * k + t * e`` over the paths P = v0..vk of
    k >= 1 edges, and 0 for a graph with no edge: e counts P's ends that
    have an edge off P, once when both have only v0vk. At t = 0 it is the
    longest-path length, and at t that of the t-fold subdivision, as
    ``subdivision.subdivided_length`` derives.
    """
    n = len(adj)
    step = t + 1
    best = ticks = 0
    short = -2 * t // step  # the most edges k for which no P beats ``best``

    def grow(v0: int, head: int, used: int, k: int) -> None:
        # P runs from v0 over k edges to ``head``. Entered at a start, with
        # k = 0, or just past a branch.
        nonlocal best, short, ticks
        ext = adj[head] & ~used
        while ext and not ext & (ext - 1):  # one way on: take it
            used |= ext
            head = ext.bit_length() - 1
            k += 1
            ext = adj[head] & ~used
        if not ext:
            # Only a dead end is scored: a forced step adds t + 1 and costs
            # its end at most t, and past a branch that could beat ``best``
            # every way on passes the bound and scores more. An end has an
            # edge off P when it has two neighbours; adjacent ends with just
            # two share v0vk, which needs k > 1, as a dead end at k = 1 has
            # one. An isolated start scores 0.
            if k > short:
                a, a0 = adj[head], adj[v0]
                e = (a0 & (a0 - 1) > 0) + (a & (a - 1) > 0)
                if a0 >> head & 1 and a0.bit_count() == a.bit_count() == 2:
                    e = 1
                score = step * k + t * e
                if score > best:
                    best, short = score, (score - 2 * t) // step
        else:
            # The bound is tested once per branch: along a chain of forced
            # steps the unused vertices reachable from the head and the
            # edges needed to beat ``best`` both fall by one per step.
            _check_deadline(deadline, ticks)
            ticks += 1
            if _reaches(adj, ext, used, short - k + 1):
                while ext:
                    low = ext & -ext
                    ext ^= low
                    grow(v0, low.bit_length() - 1, used | low, k + 1)

    # A maximum path cannot end at a cut vertex: the path minus that end
    # lies on one side of it, and an edge to another side adds t + 1 and
    # loses at most t at that end.
    cuts = _cut_vertices(adj)
    # No path scores more: it holds a vertex of degree at most 1 only as an
    # end, which has no edge off it, so a star stops after its first start.
    leaves = sum(a & (a - 1) == 0 for a in adj)
    ends = min(2, leaves)
    top = step * (n - 1 - leaves + ends) + t * (2 - ends)
    try:
        for v0 in range(n):
            if not cuts >> v0 & 1:
                grow(v0, v0, 1 << v0, 0)
                if best >= top:
                    break
    except RecursionError:
        raise _too_deep(n) from None
    finally:
        # The closure refers to itself; dropping the name frees it, and all
        # it holds, with this call rather than at the next cyclic GC.
        del grow
    return best


def _join_halves(adj: tuple[int, ...], layer: list[dict[int, int]]) -> int:
    """The number of directed Hamiltonian paths, from the forward count's
    layer of ``(n - 1) // 2`` edges: ``layer[head]`` maps the vertex set of
    each path of the layer that ends at ``head`` to the number of them.

    A directed Hamiltonian path splits in exactly one way into a path of
    the layer followed by another, reversed (the split into halves of
    Bjorklund, Husfeldt, Kaski and Koivisto, "Counting paths and packings
    in halves", 2009): for ``n`` odd both end at the middle vertex and
    share only it; for ``n`` even the middle edge joins their ends and they
    are disjoint. ``_halves`` finds each pair once, so each undirected
    path once.
    """
    return 2 * sum(cu * cw for _, _, cu, _, _, cw in _halves(adj, layer))


def _halves(adj: tuple[int, ...], layer: list[dict[int, int]]):
    """Each pair of the layer's states that joins into Hamiltonian paths,
    once, as ``(u, x, cu, w, y, cw)``: the paths over ``u`` that end at
    ``x`` (``cu`` of them), followed by those over ``w`` that end at ``y``,
    reversed. The first half holds the smallest vertex outside the middle
    one (``n`` odd, ``x == y``) or vertex 0 (``n`` even, ``y`` adjacent to
    ``x``)."""
    n = len(adj)
    # A vertex of degree at most 1 ends every Hamiltonian path, which has two ends.
    if sum(a & (a - 1) == 0 for a in adj) > 2:
        return
    full = (1 << n) - 1
    if n & 1:
        for y, states in enumerate(layer):
            other = full ^ 1 << y  # ``other ^ u``: the other half's set
            low = other & -other
            for u in states.keys() & map(other.__xor__, states):
                if u & low:
                    yield u, y, states[u], other ^ u, y, states[other ^ u]
        return
    # Per vertex set: the set holding vertex 0, and one lookup of its
    # complement. Without a Hamiltonian path the layer seldom holds two
    # complementary sets at all, whatever their ends.
    sets = set().union(*layer)
    for u in sets:
        if u & 1 and full ^ u in sets:
            w = full ^ u
            for x in iter_bits(u):
                cu = layer[x].get(u)
                if cu:
                    for y in iter_bits(adj[x] & w):
                        cw = layer[y].get(w)
                        if cw:
                            yield u, x, cu, w, y, cw


class LongestPathTable:
    """One graph's longest paths, counted and intersected without being
    listed, and listed on first use of ``paths``.

    Construction runs the forward count. A state is a vertex set ``used``
    with a ``head`` in it. Layer 0 maps each one-vertex state to 1; layer
    ``k + 1`` extends every state of layer ``k`` by one edge, and maps each
    state it reaches to the number of directed paths over ``used`` that end
    at ``head``. The first empty layer ends the count. The last non-empty
    one holds exactly the longest paths: its index is ``length``, the sum
    of its values is ``count`` (halved, since each path is counted from
    both ends, unless ``length`` is 0) and the AND of its vertex sets is
    ``core``, the mask of the vertices on all of them. At layer
    ``(n - 1) // 2`` the count first joins the layer's paths in pairs into
    Hamiltonian paths (``_join_halves``); if there are any, they are the
    longest paths and no later layer is built. The table keeps the layers
    of a count that answered, unless it is truncated, until ``paths``
    lists from them.

    The count gives up once the states built pass ``FORWARD_STATES``, or
    once the last layer's growth says the next would take them past it,
    and keeps no layers. Construction then runs the length search and
    fills the completion table toward ``length`` edges: the depth-first
    search from every start vertex, memoised on the partial path's head
    and vertex set. A state's entry is ``(count, core)``: the number of
    ways to extend a path over ``used`` that ends at ``head`` to
    ``length`` edges, and the AND of the vertex masks those extensions
    add. ``paths`` walks that table.

    With a ``cap``, more than ``cap`` paths set ``truncated``: ``count``
    and ``core`` are None and ``paths`` is empty. A state's count is a
    lower bound on the number of directed longest paths, so the fill stops
    as soon as more than ``cap`` paths are certain, and its work stays
    bounded on dense graphs however many paths they have. A layered count
    is certain of nothing before its last layer, so past the budget the
    fill, not the count, answers.
    """

    def __init__(
        self, graph: Graph, cap: int | None = None, *, deadline: float | None = None
    ):
        if cap is not None and cap < 1:
            raise ValueError("cap must be at least 1")
        n = graph.n
        self.cap = cap
        self._adj = graph.adjacency
        self._n = n
        self._deadline = deadline
        self._ticks = 0
        # Entries keyed ``used * n + head``. Every state that completes has
        # one, so in a filled table a missing entry means no completion.
        self._table: dict[int, tuple[int, int]] = {}
        # The forward count's layers, kept for ``paths`` when it answered.
        self._layers: list[list[dict[int, int]]] | None = None
        # Directed paths: each undirected one is counted from both ends.
        self._limit = float("inf") if cap is None else 2 * cap
        self.length, count, core = self._count_forward() or self._count_depth_first(graph)
        self.truncated = count is None or cap is not None and count > cap
        if self.truncated:
            self._layers = None  # nothing is listed
        self.count = None if self.truncated else count
        self.core = None if self.truncated else core

    def _count_forward(self) -> tuple[int, int, int] | None:
        # (length, count, core) from the layers, or None past the budget.
        adj = self._adj
        n = self._n
        deadline = self._deadline
        # layer[head] maps ``used`` to its number of directed paths; one
        # dict per head measured faster than one keyed ``used * n + head``.
        layer = [{1 << v: 1} for v in range(n)]
        layers = [layer]
        length = 0
        ticks = 0
        built = n  # the states of every layer so far, the one being built excluded
        last = n  # the states of ``layer``
        while True:
            if length and length == (n - 1) // 2:  # the middle layer, for n > 2
                # The join is a few set operations per head: one deadline
                # check covers it.
                _check_deadline(deadline, 0)
                directed = _join_halves(adj, layer)
                if directed:
                    self._layers = layers
                    return n - 1, directed // 2, (1 << n) - 1
            nxt: list[dict[int, int]] = [{} for _ in range(n)]
            for head, states in enumerate(layer):
                reach = adj[head]
                for used, c in states.items():
                    if not ticks & 255:  # the first state and every 256th after it
                        if built + sum(map(len, nxt)) > FORWARD_STATES:
                            return None
                        _check_deadline(deadline, ticks)
                    ticks += 1
                    m = reach & ~used
                    while m:
                        low = m & -m
                        m ^= low
                        ends = nxt[low.bit_length() - 1]
                        key = used | low
                        ends[key] = ends.get(key, 0) + c
            size = sum(map(len, nxt))
            if not size:
                break
            # Give up a layer early when growing as this one did would take
            # the next past the budget: that layer would cost the most.
            if built + size + size * size // last > FORWARD_STATES:
                return None
            built += size
            last = size
            layer = nxt
            layers.append(layer)
            length += 1
        directed = 0
        core = -1
        for states in layer:
            for used, c in states.items():
                directed += c
                core &= used
        self._layers = layers
        return length, directed // 2 if length else directed, core

    def _count_depth_first(self, graph: Graph) -> tuple[int, int | None, int | None]:
        # (length, count, core) by the length search and the fill toward
        # it; count and core are None once the fill stopped past the cap.
        n = self._n
        length = longest_path_length(graph, deadline=self._deadline)
        if length == 0:
            # Every vertex is a longest path by itself.
            return 0, n, (1 << n) - 1 if n < 2 else 0
        try:
            directed, core = self._fill_table(length)
        except _StopSearch:
            return length, None, None
        return length, directed // 2, core

    def _fill_table(self, length: int) -> tuple[int, int]:
        # The directed paths of ``length`` edges and their core, from every
        # start. Raises _StopSearch once more than the cap are certain.
        n = self._n
        directed = 0
        core = (1 << n) - 1
        try:
            for start in range(n):
                c, k = self._fill(start, 1 << start, length)
                if c:
                    directed += c
                    core &= k | 1 << start
                    if directed > self._limit:
                        raise _StopSearch
        except RecursionError:
            raise _too_deep(n) from None
        return directed, core

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
        """Every longest path, in sorted order, listed on first use. Empty
        when the table is truncated.

        After a forward count the paths are walked back through its kept
        layers (``_walk_layers``) and sorted. Past its budget they are
        walked from the depth-first table that answered the count: branches
        are entered in ascending vertex order, and only if they complete,
        so the paths come out sorted."""
        if self.truncated:
            return ()
        n = self._n
        target = self.length
        if target == 0:
            return tuple(Path((v,)) for v in range(n))
        if self._layers is not None:
            found = self._walk_layers()
            self._layers = None  # listed once: the layers are not needed again
            return found
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
            del walk  # the closure cycle again, as in _longest_length
        return tuple(found)

    def _walk_layers(self) -> tuple[Path, ...]:
        # The longest paths from the forward count's kept layers. Every
        # state of a layer extends one of the layer before, so a walk back
        # from a state lists each path over its set that ends at its head,
        # and enters no branch that fails.
        adj = self._adj
        deadline = self._deadline
        layers = self._layers
        last = len(layers) - 1  # ``length``, or the layer the join matched
        walked: list[tuple[int, ...]] = []

        def back(head: int, used: int, k: int, seq: list[int], least: int) -> None:
            # Appends to ``walked`` ``seq`` followed by each path of layer k
            # over ``used`` that ends at ``head``, walked back to its start,
            # if that start is past ``least``.
            _check_deadline(deadline, self._ticks)
            self._ticks += 1
            rest = used ^ 1 << head
            if not rest >> (least + 1):
                return
            if k == 1:
                walked.append((*seq, rest.bit_length() - 1))
                return
            prev = layers[k - 1]
            m = adj[head] & rest
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                if rest in prev[v]:
                    seq.append(v)
                    back(v, rest, k - 1, seq, least)
                    seq.pop()

        def ends_at(head: int, used: int, least: int) -> list[tuple[int, ...]]:
            # The state's paths from ``head``, that start past ``least``.
            back(head, used, last, [head], least)
            found = walked[:]
            walked.clear()
            return found

        found: list[tuple[tuple[int, ...], int]] = []
        try:
            if last == self.length:
                # Each undirected path is kept from its smaller end.
                for head, states in enumerate(layers[last]):
                    for used in states:
                        found += [(vs, used) for vs in ends_at(head, used, head)]
            else:
                # Each pair of halves the join counted, once: the first half
                # from its start, then the second from its head (after the
                # shared middle vertex for n odd), or the reverse of that.
                full = (1 << self._n) - 1
                odd = self._n & 1
                halves: dict[tuple[int, int], list] = {}
                for u, x, _, w, y, _ in _halves(adj, layers[last]):
                    for used, head in ((u, x), (w, y)):
                        if (used, head) not in halves:
                            halves[used, head] = [(vs, vs[::-1])
                                                  for vs in ends_at(head, used, -1)]
                    second = halves[w, y]
                    for a, ra in halves[u, x]:
                        for b, rb in second:
                            found.append((ra + b[odd:] if a[-1] < b[-1] else rb + a[odd:], full))
        except RecursionError:
            raise _too_deep(self._n) from None
        finally:
            del back  # the closure cycle again, as in _longest_length
        found.sort()
        return tuple([Path._trusted(vs, mask) for vs, mask in found])


def enumerate_longest_paths(
    graph: Graph, cap: int = DEFAULT_PATH_CAP, *, deadline: float | None = None
) -> LongestPathTable:
    """The graph's longest-path table with its ``paths`` listed: every
    longest path, deduplicated under reversal, in sorted order, or none
    when more than ``cap`` exist and the table is ``truncated``."""
    table = LongestPathTable(graph, cap, deadline=deadline)
    table.paths  # walked here, within this call's deadline and timing
    return table
