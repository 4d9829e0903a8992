"""Exhaustive isomorphism-free generation of small connected graphs.

The canonical representative of an isomorphism class is the
lexicographically minimal upper-triangle bit string over all vertex
relabellings, with pairs ordered column by column: (0,1), (0,2), (1,2),
(0,3), ... Bit strings are packed into ints most significant bit first, so
integer order equals lexicographic order. This is also the bit order of a
graph6 payload, and its decoder lives with the graph6 codec in ``graphs``.

Generation is an orderly extension: the leading C(k,2) bits of a canonical
string are exactly the induced subgraph on vertices 0..k-1, and relabelling
only those k vertices shows the prefix must itself be canonical. Every
canonical k-vertex mask therefore arises by appending one adjacency column
to a canonical (k-1)-vertex mask, which shrinks the candidate space from
all labelled graphs to a few thousand masks before the final minimality
check.

Canonicity is decided once per (k-1)-vertex base for all 2^(k-1) appended
columns together: column c is bit c, its "lane", of a Python int, so one
int holds a set of candidates, and the adjacency of any two vertices is the
set of lanes in which they are adjacent (all lanes or none between base
vertices, the columns' bits for the new vertex). The search backtracks over
relabellings one position at a time, comparing the relabelled string column
by column with each lane's candidate: lanes where it dips below are
rejected (that candidate is not minimal), lanes where it rises above are
dropped from the branch, and only lanes still equal descend. Twin pruning
is exact and runs per lane: twins are vertices whose rows agree outside the
pair, and swapping them is an automorphism fixing every other vertex, so
with the same vertices placed before, either twin placed next yields the
same strings; at every node a vertex is tried only in the lanes where no
lower twin of it is unplaced. The lanes never rejected are the canonical
candidates. At n = 8 the 1,044 searches make about 132 thousand
expansions for the 133,632 candidates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, _adjacency_rows, is_connected

MAX_GENERATION_N = 8


@lru_cache(maxsize=None)
def _lane_columns(k: int) -> tuple[int, ...]:
    # Entry v: the lanes (appended columns c, as bit c) in which vertex v is
    # adjacent to the new vertex k, i.e. the columns with bit k-1-v set.
    return tuple(
        sum(1 << c for c in range(1 << k) if c >> (k - 1 - v) & 1) for v in range(k)
    )


def _canonical_lanes(base: int, k: int) -> int:
    """The appended columns c, as bit c, for which ``base << k | c`` is
    canonical on k + 1 vertices; ``base`` is any k-vertex mask."""
    n = k + 1
    every = (1 << (1 << k)) - 1
    rows = _adjacency_rows(base, k)
    new = _lane_columns(k)
    # adj[u][v]: the lanes in which u and v are adjacent.
    adj = [
        [every if row >> v & 1 else 0 for v in range(k)] + [new[u]]
        for u, row in enumerate(rows)
    ]
    adj.append(list(new) + [0])
    # twins[w]: (u bit, lanes) for each u < w that agrees with w outside
    # the pair in those lanes.
    twins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for w in range(n):
        for u in range(w):
            lanes = every
            for v in range(n):
                if v != u and v != w:
                    lanes &= ~(adj[u][v] ^ adj[w][v])
            if lanes:
                twins[w].append((1 << u, lanes))
    rejected = 0

    def descend(placed: list[int], unplaced: int, live: int) -> None:
        # ``placed`` holds the vertices at positions 0..p-1 and ``live`` the
        # lanes whose relabelled string still equals the candidate's.
        nonlocal rejected
        p = len(placed)
        target = adj[p]
        rest = unplaced
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            equal = live & ~rejected
            for u, lanes in twins[w]:
                if u & unplaced:
                    equal &= ~lanes
            row = adj[w]
            for t, v in zip(target, placed):
                x = row[v]
                if t != x:
                    rejected |= equal & t & ~x  # a 0 under the target's 1
                    equal &= ~(t ^ x)
                    if not equal:
                        break
            if equal and p + 1 < n:
                descend(placed + [w], unplaced ^ low, equal)

    descend([], (1 << n) - 1, every)
    return every & ~rejected


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """All canonical masks on n vertices (connected or not), ascending."""
    if n == 1:
        return (0,)
    k = n - 1
    out = []
    for base in _canonical_masks(k):
        lanes = _canonical_lanes(base, k)
        shifted = base << k
        while lanes:
            low = lanes & -lanes
            lanes ^= low
            out.append(shifted | low.bit_length() - 1)
    return tuple(out)


def mask_to_graph(n: int, mask: int) -> Graph:
    return Graph(n, tuple(_adjacency_rows(mask, n)))


def generate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on
    exactly n vertices, streamed in ascending canonical-mask order.

    The largest supported size, n = 8, takes about a second (133,632
    candidate masks in 1,044 searches); everything below it is
    near-instant.
    """
    if not 1 <= n <= MAX_GENERATION_N:
        raise ValueError(f"generation supports 1 <= n <= {MAX_GENERATION_N}")
    for mask in _canonical_masks(n):
        graph = mask_to_graph(n, mask)
        if is_connected(graph):
            yield graph
