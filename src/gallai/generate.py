"""Exhaustive isomorphism-free generation of small connected graphs.

The canonical representative of an isomorphism class is the
lexicographically minimal upper-triangle bit string over all vertex
relabellings, with pairs ordered column by column: (0,1), (0,2), (1,2),
(0,3), ... Bit strings are packed into ints most significant bit first, so
integer order equals lexicographic order.

Generation is an orderly extension: the leading C(k,2) bits of a canonical
string are exactly the induced subgraph on vertices 0..k-1, and relabelling
only those k vertices shows the prefix must itself be canonical. Every
canonical k-vertex mask therefore arises by appending one adjacency column
to a canonical (k-1)-vertex mask, which shrinks the candidate space from
all labelled graphs to a few thousand masks before the final minimality
check.

Canonicity itself is decided by backtracking over relabellings one
position at a time, comparing the relabelled string column by column with
the candidate's; a branch that dips below it proves the candidate not
minimal. Two exact reductions keep the search small. Equal-set compare:
the column of an unplaced vertex at position k is its adjacency to the k
placed vertices, so one pass over their neighbourhood masks splits every
unplaced vertex into below, equal and above the target at once; a branch
above it yields only larger strings, so the search descends into the
equal set alone. Twin pruning: twins are vertices whose rows agree outside
the pair, and swapping them is an automorphism fixing every other vertex,
so with the same vertices placed before, either twin placed next yields
the same strings; at every node only the lowest unplaced member of a twin
class is tried. Candidate rows are the base's plus the appended column.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, is_connected

MAX_GENERATION_N = 8

# Counts of connected graphs up to isomorphism, used in self-checks.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _pair_bitpos(n: int, i: int, j: int) -> int:
    # pair (i, j) with i < j sits at string index j(j-1)/2 + i; the string
    # is packed MSB first into an n-choose-2 bit integer.
    npairs = n * (n - 1) // 2
    return npairs - 1 - (j * (j - 1) // 2 + i)


def _adjacency_rows(mask: int, n: int) -> list[int]:
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if mask >> _pair_bitpos(n, i, j) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _smaller_exists(
    rows: list[int], twins: list[int], placed: list[int], unplaced: int
) -> bool:
    # ``placed`` holds the rows of the vertices at positions 0..k-1; bit i
    # of the candidate's row k is the target column's bit for position i.
    k = len(placed)
    if k == len(rows):
        return False  # every position placed: the strings are equal
    target = rows[k]
    equal = unplaced
    for i, nbrs in enumerate(placed):
        if target >> i & 1:
            if equal & ~nbrs:
                return True  # a 0 under the target's 1
            equal &= nbrs
        else:
            equal &= ~nbrs
        if not equal:
            return False
    while equal:
        low = equal & -equal
        equal ^= low
        w = low.bit_length() - 1
        if twins[w] & unplaced:
            continue
        placed.append(rows[w])
        deeper = _smaller_exists(rows, twins, placed, unplaced ^ low)
        placed.pop()
        if deeper:
            return True
    return False


def _is_canonical(rows: list[int]) -> bool:
    """Whether no relabelling of the graph with these adjacency rows gives
    a lexicographically smaller string."""
    n = len(rows)
    everyone = (1 << n) - 1
    # twins[v]: v's lower twins, by open neighbourhood (non-adjacent) or by
    # closed one (adjacent; complemented, so that the two keys never meet).
    twins = []
    seen: dict[int, int] = {}
    for v, row in enumerate(rows):
        closed = ~(row | 1 << v)
        a, b = seen.get(row, 0), seen.get(closed, 0)
        twins.append(a | b)
        seen[row], seen[closed] = a | 1 << v, b | 1 << v
    for w0 in range(n):
        if not twins[w0] and _smaller_exists(rows, twins, [rows[w0]], everyone ^ 1 << w0):
            return False
    return True


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """All canonical masks on n vertices (connected or not), ascending."""
    if n == 1:
        return (0,)
    k = n - 1
    bit = 1 << k
    # The appended column's bit k-1-i is the pair (i, k); reversed, it is
    # the new vertex's row.
    new_rows = [int(f"{col:0{k}b}"[::-1], 2) for col in range(1 << k)]
    out = []
    for base in _canonical_masks(k):
        base_rows = _adjacency_rows(base, k)
        shifted = base << k
        for col, new_row in enumerate(new_rows):
            rows = [row | bit if new_row >> v & 1 else row for v, row in enumerate(base_rows)]
            rows.append(new_row)
            if _is_canonical(rows):
                out.append(shifted | col)
    return tuple(out)


def mask_to_graph(n: int, mask: int) -> Graph:
    return Graph(n, tuple(_adjacency_rows(mask, n)))


def graph_to_mask(graph: Graph) -> int:
    mask = 0
    for u, v in graph.edges():
        mask |= 1 << _pair_bitpos(graph.n, u, v)
    return mask


def generate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on
    exactly n vertices, streamed in ascending canonical-mask order.

    The largest supported size, n = 8, takes about three seconds (134
    thousand candidate masks); everything below it is near-instant.
    """
    if not 1 <= n <= MAX_GENERATION_N:
        raise ValueError(f"generation supports 1 <= n <= {MAX_GENERATION_N}")
    for mask in _canonical_masks(n):
        graph = mask_to_graph(n, mask)
        if is_connected(graph):
            yield graph
