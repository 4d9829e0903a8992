"""Isomorphism-free exhaustive generation of small connected graphs."""

import hashlib
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, corpus, oracle_isomorphic, star_graph
from gallai.cli import main
from gallai.generate import (
    _canonical_lanes,
    _canonical_masks,
    connected_masks,
    generate_connected_graphs,
    mask_to_graph,
)
from gallai.graphs import Graph, from_edge_list, is_connected, mask_to_graph6, to_graph6

# sha256 of `gen --n 8`: the graph6 lines, each newline-terminated.
GEN_N8_SHA256 = "370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145"


def pair_bitpos(n: int, i: int, j: int) -> int:
    # pair (i, j) with i < j sits at string index j(j-1)/2 + i; the string
    # is packed MSB first into an n-choose-2 bit integer.
    npairs = n * (n - 1) // 2
    return npairs - 1 - (j * (j - 1) // 2 + i)


def graph_to_mask(graph: Graph) -> int:
    """The upper-triangle bit string of ``graph`` as labelled, the inverse
    of ``mask_to_graph``."""
    mask = 0
    for u, v in graph.edges():
        mask |= 1 << pair_bitpos(graph.n, u, v)
    return mask


def oracle_min_mask(n: int, mask: int) -> int:
    """Direct minimisation over all relabellings, reimplemented plainly."""
    edges = list(mask_to_graph(n, mask).edges())
    best = mask
    for perm in permutations(range(n)):
        m = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            m |= 1 << pair_bitpos(n, a, b)
        best = min(best, m)
    return best


def oracle_is_canonical(n: int, mask: int) -> bool:
    """Backtracking over relabellings one vertex at a time: each unplaced
    vertex's column is built bit by bit and compared with the candidate's,
    with no bit-parallel compare and no twin pruning."""
    if n == 1:
        return True
    npairs = n * (n - 1) // 2
    if mask != (1 << npairs) - 1 and mask >> (npairs - 1) & 1:
        return False
    cols = []
    shift = npairs
    for k in range(1, n):
        shift -= k
        cols.append(mask >> shift & ((1 << k) - 1))
    rows = mask_to_graph(n, mask).adjacency

    def smaller_exists(k: int, placed: list[int], used: int) -> bool:
        target = cols[k - 1]
        for w in range(n):
            if used >> w & 1:
                continue
            col = 0
            for i in range(k):
                if rows[w] >> placed[i] & 1:
                    col |= 1 << (k - 1 - i)
            if col < target:
                return True
            if col == target and k + 1 < n:
                placed.append(w)
                deeper = smaller_exists(k + 1, placed, used | 1 << w)
                placed.pop()
                if deeper:
                    return True
        return False

    return not any(smaller_exists(1, [w0], 1 << w0) for w0 in range(n))


def candidates(n: int):
    """Every mask the generator tests on n vertices: each canonical
    (n-1)-vertex mask with each appended column."""
    for base in _canonical_masks(n - 1):
        for col in range(1 << (n - 1)):
            yield base << (n - 1) | col


# Candidates sharing a base share one search.
canonical_lanes = lru_cache(maxsize=None)(_canonical_lanes)


def is_canonical(n: int, mask: int) -> bool:
    """The lane search on the mask's (n-1)-vertex base, read at the lane of
    its appended column."""
    k = n - 1
    return bool(canonical_lanes(mask >> k, k) >> (mask & ((1 << k) - 1)) & 1)


class TestCounts:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]
    )
    def test_connected_counts(self, n, count):
        assert len(corpus(n)) == count

    def test_connected_count_at_eight(self):
        # The gated largest size: the count pins completeness, the digest
        # pins `gen --n 8` byte for byte.
        lines = [to_graph6(g) + "\n" for g in generate_connected_graphs(8)]
        assert len(lines) == 11117
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == GEN_N8_SHA256
        assert len(_canonical_masks(8)) == 12346

    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]
    )
    def test_all_graph_counts(self, n, count):
        # Including disconnected graphs, as used by the extension step.
        assert len(_canonical_masks(n)) == count


class TestSoundness:
    def test_all_connected(self):
        for n in range(1, 6):
            for g in corpus(n):
                assert is_connected(g)
                assert g.n == n

    def test_pairwise_non_isomorphic(self):
        for n in range(1, 6):
            graphs = corpus(n)
            for a, b in combinations(graphs, 2):
                assert not oracle_isomorphic(a, b)

    def test_emitted_masks_are_orbit_minima(self):
        for n in range(2, 6):
            for g in corpus(n):
                mask = graph_to_mask(g)
                assert oracle_min_mask(n, mask) == mask

    def test_stream_sorted_by_canonical_mask(self):
        for n in range(1, 7):
            masks = [graph_to_mask(g) for g in corpus(n)]
            assert masks == sorted(masks)

    def test_stream_sorted_by_graph6(self):
        # graph6 records inherit the mask order byte for byte.
        for n in range(1, 7):
            recs = [to_graph6(g) for g in corpus(n)]
            assert recs == sorted(recs)


def relabel(n: int, mask: int, perm) -> int:
    g = mask_to_graph(n, mask)
    return graph_to_mask(from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()]))


def bipartite(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


TWIN_HEAVY_GRAPHS = {
    "E8": from_edge_list(8, []),
    "K8": complete_graph(8),
    "K4,4": bipartite(4, 4),
    "K1,7": star_graph(7),
    "K2,6": bipartite(2, 6),
    "2K4": from_edge_list(8, [e for k in (0, 4) for e in combinations(range(k, k + 4), 2)]),
    "4K2": from_edge_list(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
}


class TestCanonicityTest:
    """The lane-parallel, twin-pruned search against independent oracles."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_backtracking_oracle_on_every_candidate(self, n):
        masks = list(candidates(n))
        if n == 7:
            assert len(masks) == 9984
        for mask in masks:
            assert is_canonical(n, mask) == oracle_is_canonical(n, mask), (n, mask)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_brute_force_minimum_on_every_candidate(self, n):
        for mask in candidates(n):
            assert is_canonical(n, mask) == (oracle_min_mask(n, mask) == mask), (n, mask)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, (1 << 28) - 1))
    def test_matches_backtracking_oracle_on_random_eight_vertex_masks(self, mask):
        assert is_canonical(8, mask) == oracle_is_canonical(8, mask)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, (1 << 15) - 1))
    def test_every_lane_of_any_six_vertex_base(self, base):
        # One search decides all 64 columns; each lane must match the
        # oracle on its own candidate, whatever the other lanes hold.
        lanes = _canonical_lanes(base, 6)
        for col in range(1 << 6):
            mask = base << 6 | col
            assert bool(lanes >> col & 1) == oracle_is_canonical(7, mask), (base, col)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_lanes_are_decided_independently(self, data):
        # The top level searches only some lanes of each base: a lane's
        # verdict must not depend on which other lanes are searched.
        for k in range(1, 7):
            for base in _canonical_masks(k):
                lanes = data.draw(st.integers(0, (1 << (1 << k)) - 1))
                assert _canonical_lanes(base, k, lanes) == canonical_lanes(base, k) & lanes

    @pytest.mark.parametrize("k", range(1, 7))
    def test_all_and_single_lanes(self, k):
        every = (1 << (1 << k)) - 1
        for base in _canonical_masks(k):
            lanes = canonical_lanes(base, k)
            assert _canonical_lanes(base, k, every) == _canonical_lanes(base, k, -1) == lanes
            for col in range(1 << k):
                assert _canonical_lanes(base, k, 1 << col) == lanes & 1 << col, (base, col)

    @pytest.mark.parametrize("base", [48561, 114029])
    def test_every_lane_of_seven_vertex_bases_decided_past_the_new_vertex(self, base):
        # Canonical 7-vertex bases with a lane that only an entry after the
        # new vertex's position rejects; the smaller exhaustive checks have
        # no such lane.
        lanes = _canonical_lanes(base, 7)
        for col in range(1 << 7):
            mask = base << 7 | col
            assert bool(lanes >> col & 1) == oracle_is_canonical(8, mask), (base, col)

    @pytest.mark.parametrize("name", sorted(TWIN_HEAVY_GRAPHS))
    def test_matches_backtracking_oracle_on_twin_heavy_graphs(self, name):
        mask = graph_to_mask(TWIN_HEAVY_GRAPHS[name])
        canonical = oracle_min_mask(8, mask)
        rng = random.Random(name)
        labellings = {mask, canonical}
        labellings.update(relabel(8, mask, rng.sample(range(8), 8)) for _ in range(6))
        for m in labellings:
            assert is_canonical(8, m) == oracle_is_canonical(8, m), (name, m)
        assert is_canonical(8, canonical)


def plain_graph6(n: int, mask: int) -> str:
    """graph6 from the bit string as text: zero-padded to whole 6-bit
    groups, each group one character."""
    npairs = n * (n - 1) // 2
    bits = format(mask, f"0{npairs}b") if npairs else ""
    bits += "0" * (-len(bits) % 6)
    return chr(63 + n) + "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, len(bits), 6))


@st.composite
def sized_masks(draw):
    n = draw(st.integers(1, 62))
    return n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))


class TestMaskOutput:
    """``gen`` writes each line from its canonical mask, building no graph."""

    def test_gen_stdout_at_eight(self, capsys):
        assert main(["gen", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_N8_SHA256

    def test_encoder_on_every_canonical_mask(self):
        for n in range(1, 9):
            for mask in _canonical_masks(n):
                record = mask_to_graph6(n, mask)
                assert record == to_graph6(mask_to_graph(n, mask)) == plain_graph6(n, mask)

    @settings(max_examples=200, deadline=None)
    @given(sized_masks())
    def test_encoder_on_random_masks(self, case):
        n, mask = case
        assert mask_to_graph6(n, mask) == to_graph6(mask_to_graph(n, mask)) == plain_graph6(n, mask)

    def test_connectivity_on_every_canonical_mask(self):
        # The top level searches only the connecting columns; the oracle
        # filters every canonical mask by building its graph.
        for n in range(1, 9):
            expected = [m for m in _canonical_masks(n) if is_connected(mask_to_graph(n, m))]
            assert list(connected_masks(n)) == expected
        assert len(_canonical_masks(8)) == 12346 and len(expected) == 11117


class TestCompleteness:
    def test_every_four_vertex_graph_is_represented(self):
        # Brute force over all labelled graphs on four vertices: each must
        # be isomorphic to exactly one emitted representative.
        reps = corpus(4)
        for mask in range(1 << 6):
            g = mask_to_graph(4, mask)
            if not is_connected(g):
                continue
            matches = [r for r in reps if oracle_isomorphic(g, r)]
            assert len(matches) == 1


class TestInterface:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            list(generate_connected_graphs(0))
        with pytest.raises(ValueError):
            list(generate_connected_graphs(9))

    def test_mask_round_trip(self):
        for g in corpus(5):
            assert mask_to_graph(g.n, graph_to_mask(g)) == g
