"""Seeded inputs for the benchmark workloads.

Every graph is drawn with ``random.Random(seed).random()`` only, so the same
seed gives the same graph6 file on every Python version. The program under
test never sees the seed: it only reads the graph6 file written here.

``longest_paths`` is an unpruned depth-first count written independently of
``gallai.paths``; it sizes the analyze and verify-prop loads and is the
oracle the output checks compare ``num_longest`` and triple counts against.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 for n <= 62: the upper triangle column by column, 6 bits a byte."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        out.append(chr(63 + value))
    return "".join(out)


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _connected(n: int, adj: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def random_connected(rng: random.Random, n: int, p: float | None = None,
                     m: int | None = None) -> list[tuple[int, int]]:
    """A connected graph from G(n, p), or uniform on m edges when ``m`` is
    given; drawn again until connected."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    while True:
        if m is None:
            edges = [e for e in pairs if rng.random() < p]
        else:
            pool = pairs[:]
            for k in range(m):
                j = k + int(rng.random() * (len(pool) - k))
                pool[k], pool[j] = pool[j], pool[k]
            edges = sorted(pool[:m])
        if _connected(n, _adjacency(n, edges)):
            return edges


def longest_paths(n: int, edges) -> list[tuple[int, ...]]:
    """Every longest path, once, as a vertex tuple from its smaller end."""
    adj = _adjacency(n, edges)
    best: list[tuple[int, ...]] = []

    def dfs(seq: list[int], used: int) -> None:
        nonlocal best
        if not best or len(seq) > len(best[0]):
            best = []
        if (not best or len(seq) == len(best[0])) and seq[0] <= seq[-1]:
            best.append(tuple(seq))
        ext = adj[seq[-1]] & ~used
        while ext:
            low = ext & -ext
            ext ^= low
            seq.append(low.bit_length() - 1)
            dfs(seq, used | low)
            seq.pop()

    for v in range(n):
        dfs([v], 1 << v)
    return best


class Load:
    """One workload input: graph6 lines plus the oracle facts about them."""

    def __init__(self, seed: int | str) -> None:
        self.seed = seed
        self.lines: list[str] = []
        self.num_longest: list[int | None] = []
        self.shape: Counter = Counter()

    def add(self, n: int, edges, num_longest: int | None = None) -> None:
        self.lines.append(graph6(n, edges))
        self.num_longest.append(num_longest)
        self.shape[(n, len(edges))] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(line + "\n" for line in self.lines)

    @property
    def triples(self) -> int:
        return sum(comb(k, 3) for k in self.num_longest if k is not None)

    def describe(self) -> dict:
        """Graph count and the histograms of n and m."""
        by_n, by_m = Counter(), Counter()
        for (n, m), c in self.shape.items():
            by_n[n] += c
            by_m[m] += c
        return {
            "graphs": len(self.lines),
            "n_hist": {str(k): by_n[k] for k in sorted(by_n)},
            "m_hist": {str(k): by_m[k] for k in sorted(by_m)},
        }


def scan_load(seed: int, per_n: int) -> Load:
    """``per_n`` graphs for each n in 8..10 with p spread evenly over
    0.20..0.50. The edge count is fixed at round(p * C(n, 2)) (at least
    n - 1): conditional on m, G(n, p) is uniform on m edges, and fixing m
    keeps the seed-to-seed spread of the load small while the dense end
    still gives the heavy tail a real scan has."""
    rng = random.Random(seed)
    load = Load(seed)
    for n in (8, 9, 10):
        for i in range(per_n):
            p = 0.20 + 0.30 * i / (per_n - 1)
            m = max(n - 1, round(p * comb(n, 2)))
            load.add(n, random_connected(rng, n, m=m))
    return load


def analyze_load(seed: int, target: int) -> Load:
    """G(n, p) graphs, n in 6..7 and p in 0.3..0.8, with 3..60 longest
    paths, until their triples reach 99.5% of ``target``. A graph whose
    triples would pass the target is drawn again, so the load has nearly
    the same size for every seed."""
    rng = random.Random(seed)
    load = Load(seed)
    total = 0
    while total < 0.995 * target:
        n = 6 + int(rng.random() * 2)
        edges = random_connected(rng, n, p=0.3 + 0.5 * rng.random())
        k = len(longest_paths(n, edges))
        if 3 <= k <= 60 and total + comb(k, 3) <= target:
            load.add(n, edges, k)
            total += comb(k, 3)
    return load


def strata_load(seed: int, strata: tuple[tuple[int, int, int, int], ...]) -> Load:
    """For each stratum ``(n, m, k, count)``, ``count`` graphs drawn
    uniformly from the connected graphs on n vertices and m edges that have
    exactly k longest paths. Conditional on m, G(n, p) is uniform on m
    edges, so this is G(n, p) sampling with the histogram fixed in advance."""
    rng = random.Random(seed)
    load = Load(seed)
    for n, m, k, count in strata:
        for _ in range(count):
            while True:
                edges = random_connected(rng, n, m=m)
                if len(longest_paths(n, edges)) == k:
                    load.add(n, edges, k)
                    break
    return load
