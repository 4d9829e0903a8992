"""Triple parameters: distance sums, witness sets, exclusive-vertex counts,
crossing counts, and pairwise intersection sizes."""

import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    corpus,
    corpus_up_to,
    cycle_graph,
    enumerate_all_simple_paths,
    oracle_f_value,
    oracle_t_count,
    oracle_triple_sizes,
    path_graph,
    spider_graph,
    star_graph,
)
from gallai.graphs import from_edge_list, parse_graph6
from gallai.paths import Path, enumerate_longest_paths
from gallai.triples import (
    PathTriple,
    TripleAnalyzer,
    TripleStream,
    analyze_triple,
    f_value,
)


@st.composite
def connected_graphs(draw, extra_per_vertex=2, max_n=10):
    """A random spanning tree on up to ``max_n`` vertices plus up to
    ``extra_per_vertex * n`` more edges."""
    n = draw(st.integers(3, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=extra_per_vertex * n)))
    return from_edge_list(n, sorted(edges))


def star_triple():
    g = star_graph(3)
    lp = enumerate_longest_paths(g)
    return g, PathTriple(tuple(lp.paths))


def cycle_triple():
    g = cycle_graph(5)
    lp = enumerate_longest_paths(g)
    return g, PathTriple(tuple(lp.paths[:3]))


class TestPathTriple:
    def test_sorted_storage(self):
        t = PathTriple((Path((2, 0, 3)), Path((1, 0, 2)), Path((1, 0, 3))))
        assert [p.vertices for p in t.paths] == [(1, 0, 2), (1, 0, 3), (2, 0, 3)]

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            PathTriple((Path((0, 1)), Path((1, 0)), Path((1, 2))))

    def test_make_validates_against_graph(self):
        g = star_graph(3)
        t = PathTriple.make(g, [1, 0, 2], [1, 0, 3], [2, 0, 3])
        assert len(t.paths) == 3
        with pytest.raises(ValueError):
            PathTriple.make(g, [1, 0, 2], [1, 0, 3], [1, 2, 3])


class TestTripleStream:
    def test_canonical_order_and_counts(self):
        lp = enumerate_longest_paths(complete_graph(4))
        stream = TripleStream(lp)
        triples = list(stream)
        assert [t.paths for t in triples] == list(combinations(lp.paths, 3))
        assert stream.total == stream.examined == 220
        assert stream.skipped == 0

    def test_cap_counts_skipped(self):
        lp = enumerate_longest_paths(complete_graph(4))
        stream = TripleStream(lp, 5)
        assert len(list(stream)) == 5
        assert (stream.examined, stream.skipped) == (5, 215)

    def test_early_stop_counts_what_was_yielded(self):
        stream = TripleStream(enumerate_longest_paths(cycle_graph(5)))
        for k, _ in enumerate(stream, 1):
            if k == 3:
                break
        assert (stream.total, stream.examined, stream.skipped) == (10, 3, 7)

    def test_too_few_paths(self):
        stream = TripleStream(enumerate_longest_paths(path_graph(3)))
        assert list(stream) == []
        assert stream.total == stream.skipped == 0

    def test_indexing_agrees_with_iteration(self):
        for g in corpus_up_to(5):
            stream = TripleStream(enumerate_longest_paths(g))
            assert [stream[i] for i in range(stream.total)] == list(stream)

    def test_trusted_triples_equal_validated_ones(self):
        # The stream skips PathTriple's sorting and distinctness checks.
        for g in corpus_up_to(5):
            stream = TripleStream(enumerate_longest_paths(g))
            for t in stream:
                ref = PathTriple(t.paths[::-1])
                assert t.paths == ref.paths and hash(t) == hash(ref)

    def test_index_out_of_range(self):
        stream = TripleStream(enumerate_longest_paths(cycle_graph(5)))
        for bad in (-1, 10):
            with pytest.raises(IndexError):
                stream[bad]

    def test_index_far_into_a_large_set(self):
        # 2520 longest paths on K7, about 2.7e9 triples.
        lp = enumerate_longest_paths(complete_graph(7))
        stream = TripleStream(lp)
        assert stream[stream.total - 1].paths == lp.paths[-3:]
        assert stream[0].paths == lp.paths[:3]


class TestFValue:
    def test_star(self):
        g, t = star_triple()
        assert f_value(g, t) == (0, frozenset({0}))

    def test_cycle_all_witnesses(self):
        g, t = cycle_triple()
        assert f_value(g, t) == (0, frozenset(range(5)))

    def test_common_vertex_gives_zero(self):
        g = path_graph(5)
        t = PathTriple((Path((1, 2)), Path((2, 3)), Path((1, 2, 3))))
        f, wits = f_value(g, t)
        assert f == 0
        assert 2 in wits

    def test_positive_value_on_spread_triple(self):
        # Non-longest single-edge paths pushed far apart on a long path
        # exercise the nonzero regime.
        g = path_graph(9)
        t = PathTriple((Path((0, 1)), Path((3, 4)), Path((6, 7))))
        f, wits = f_value(g, t)
        assert f == 5
        assert wits == frozenset({3, 4})

    def test_matches_double_loop_oracle_exhaustively(self):
        # All triples up to four vertices; five-vertex graph triple spaces
        # explode (the densest has 34220), so those take a deterministic
        # slice per graph.
        rng = random.Random(41)
        for n in range(2, 6):
            for g in corpus(n):
                lp = enumerate_longest_paths(g)
                if len(lp.paths) < 3:
                    continue
                combos = list(combinations(lp.paths, 3))
                if n == 5 and len(combos) > 30:
                    combos = combos[:15] + rng.sample(combos[15:], 15)
                for combo in combos:
                    t = PathTriple(combo)
                    f, wits = f_value(g, t)
                    of, owits = oracle_f_value(g, t.paths)
                    assert (f, set(wits)) == (of, owits)

    def test_matches_oracle_on_arbitrary_triples(self):
        rng = random.Random(17)
        for g in corpus(5):
            allp = enumerate_all_simple_paths(g)
            if len(allp) < 3:
                continue
            for _ in range(5):
                combo = rng.sample(allp, 3)
                try:
                    t = PathTriple(tuple(combo))
                except ValueError:
                    continue
                f, wits = f_value(g, t)
                of, owits = oracle_f_value(g, t.paths)
                assert (f, set(wits)) == (of, owits)

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(extra_per_vertex=1), st.randoms(use_true_random=False))
    def test_matches_oracle_on_random_graphs(self, g, rng):
        # Three distinct arbitrary simple paths, so that f > 0 occurs, on up
        # to ten vertices and fewer than 2n edges, which keeps the listing
        # of every simple path small.
        t = PathTriple(tuple(rng.sample(enumerate_all_simple_paths(g), 3)))
        f, wits = f_value(g, t)
        of, owits = oracle_f_value(g, t.paths)
        assert (f, set(wits)) == (of, owits)

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1), (1, 2)])
        t = PathTriple((Path((0, 1)), Path((1, 2)), Path((0, 1, 2))))
        with pytest.raises(ValueError):
            f_value(g, t)


def meet_size(t: PathTriple) -> int:
    return len(frozenset.intersection(*(frozenset(p.vertices) for p in t.paths)))


class TestExclusiveVertices:
    def test_star_all_empty(self):
        g, t = star_triple()
        assert analyze_triple(g, t).x_sizes == (0, 0, 0)

    def test_cycle_all_empty(self):
        g, t = cycle_triple()
        assert analyze_triple(g, t).x_sizes == (0, 0, 0)

    def test_disjoint_paths_keep_everything(self):
        t = PathTriple((Path((0, 1)), Path((3, 4)), Path((6, 7, 8))))
        ana = analyze_triple(path_graph(9), t)
        assert ana.x_sizes == (2, 2, 3)
        assert ana.pairwise_sizes == (0, 0, 0)

    def test_partition_identity(self):
        # Each path splits into exclusive vertices and vertices shared with
        # the other two, counted by inclusion-exclusion.
        for g in corpus(5):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) < 3:
                continue
            for combo in combinations(lp.paths, 3):
                t = PathTriple(combo)
                ana = analyze_triple(g, t)
                x, (p01, p02, p12), meet = ana.x_sizes, ana.pairwise_sizes, meet_size(t)
                shared = (p01 + p02 - meet, p01 + p12 - meet, p02 + p12 - meet)
                for k in range(3):
                    assert len(t.paths[k]) == x[k] + shared[k] == lp.length + 1

    def test_inclusion_exclusion_identity(self):
        # sum |V(Pi)| = sum |X_i| + 2 * sum pairwise - 3 * |triple meet|.
        for g in corpus(5):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) < 3:
                continue
            for combo in combinations(lp.paths, 3):
                t = PathTriple(combo)
                ana = analyze_triple(g, t)
                total = sum(len(p) for p in t.paths)
                xs = sum(ana.x_sizes)
                pw = sum(ana.pairwise_sizes)
                assert total == xs + 2 * pw - 3 * meet_size(t)


class TestPairwiseIntersection:
    def test_star(self):
        g, t = star_triple()
        assert analyze_triple(g, t).pairwise_sizes == (2, 2, 2)

    def test_cycle_full(self):
        g, t = cycle_triple()
        assert analyze_triple(g, t).pairwise_sizes == (5, 5, 5)


def crossings(graph, triple, strict=False):
    """The triple's crossing counts, as ``TripleAnalyzer`` reports them."""
    return TripleAnalyzer(graph, strict)(triple).t_counts


class TestTCount:
    def test_star_single_crossing(self):
        # Only the centre qualifies: every longer subpath hits a path twice.
        g, t = star_triple()
        assert crossings(g, t) == (1, 1, 1)

    def test_star_strict_drops_degenerate(self):
        g, t = star_triple()
        assert crossings(g, t, strict=True) == (0, 0, 0)

    def test_cycle_five_crossings(self):
        g, t = cycle_triple()
        assert crossings(g, t) == (5, 5, 5)

    def test_spider_single_crossing(self):
        g = spider_graph(3, 2)
        lp = enumerate_longest_paths(g)
        assert len(lp.paths) == 3
        assert crossings(g, PathTriple(tuple(lp.paths))) == (1, 1, 1)

    def test_nondegenerate_crossing(self):
        # P = 0-1-2 with other paths touching only its ends: the whole of P
        # is the single crossing, in both conventions.
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 3), (2, 4)])
        t = PathTriple((Path((0, 1, 2)), Path((0, 3)), Path((2, 4))))
        assert crossings(g, t)[0] == 1
        assert crossings(g, t, strict=True)[0] == 1

    def test_no_crossing_when_one_side_missing(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        t = PathTriple((Path((0, 1, 2)), Path((0, 3)), Path((3, 4))))
        assert crossings(g, t)[0] == 0

    def test_symmetric_in_the_other_two(self):
        # Swapping the roles of the two other paths cannot change the count.
        rng = random.Random(23)
        for g in corpus(5):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) < 3:
                continue
            t = PathTriple(tuple(rng.sample(list(lp.paths), 3)))
            counts = crossings(g, t)
            for k in range(3):
                a, b = (p for p in t.paths if p != t.paths[k])
                assert counts[k] == oracle_t_count((t.paths[k], a, b), 0)
                assert counts[k] == oracle_t_count((t.paths[k], b, a), 0)

    @staticmethod
    def assert_matches_quadratic_oracle(g, t):
        for strict in (False, True):
            assert crossings(g, t, strict) == tuple(
                oracle_t_count(t.paths, k, strict=strict) for k in range(3))

    @staticmethod
    def sample(g, rng, size):
        # Every triple of a graph with at most ``size``, else ``size`` at
        # seeded random positions.
        stream = TripleStream(enumerate_longest_paths(g))
        if stream.total <= size:
            return list(stream)
        return [stream[i] for i in rng.sample(range(stream.total), size)]

    def test_every_side_pattern_matches_quadratic_oracle(self):
        # A count depends only on which of the other two paths each vertex
        # of the selected path lies on. Every such pattern on up to seven
        # vertices, so every triple of every graph with n <= 7, is checked:
        # vertex v of the selected path 0..length-1 lies on ``a`` when bit 0
        # of sides[v] is set and on ``b`` when bit 1 is.
        for length in range(1, 8):
            selected = Path(tuple(range(length)))
            # Every vertex sequence is a path of the complete graph.
            analyzers = [TripleAnalyzer(complete_graph(length + 2), strict)
                         for strict in (False, True)]
            for sides in product(range(4), repeat=length):
                # An extra vertex off the selected path keeps each path
                # nonempty and the three distinct.
                a = Path(tuple(v for v, s in enumerate(sides) if s & 1) + (length,))
                b = Path(tuple(v for v, s in enumerate(sides) if s & 2) + (length + 1,))
                t = PathTriple((selected, a, b))
                k = t.paths.index(selected)
                for analyze, strict in zip(analyzers, (False, True)):
                    assert analyze(t).t_counts[k] == oracle_t_count(
                        t.paths, k, strict=strict)

    def test_matches_quadratic_oracle_on_corpus(self):
        # The densest six-vertex graphs have millions of triples; the
        # pattern test above covers every one of them.
        rng = random.Random(5)
        for n, size in ((4, 10**6), (5, 300), (6, 50), (7, 3)):
            for g in corpus(n):
                for t in self.sample(g, rng, size):
                    self.assert_matches_quadratic_oracle(g, t)

    def test_matches_quadratic_oracle_on_gallai_free_graph(self):
        # Twelve vertices: paths longer than the pattern test reaches.
        g = parse_graph6("KhAAPWU_?_@?")
        for t in self.sample(g, random.Random(3), 1000):
            self.assert_matches_quadratic_oracle(g, t)

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_matches_quadratic_oracle_on_random_graphs(self, g, rng):
        triples = self.sample(g, rng, 20)
        assume(triples)
        for t in triples:
            self.assert_matches_quadratic_oracle(g, t)

    def test_at_least_one_for_longest_triples(self):
        # Crossing counts are positive whenever the triple consists of
        # longest paths of a connected graph.
        for n in range(3, 6):
            for g in corpus(n):
                lp = enumerate_longest_paths(g)
                if len(lp.paths) < 3:
                    continue
                analyze = TripleAnalyzer(g)
                for combo in combinations(lp.paths, 3):
                    assert min(analyze(PathTriple(combo)).t_counts) >= 1


class TestAnalyzeTriple:
    def test_star_analysis(self):
        g, t = star_triple()
        ana = analyze_triple(g, t)
        assert ana.f == 0
        assert ana.witnesses == {0}
        assert ana.x_sizes == (0, 0, 0)
        assert ana.t_counts == (1, 1, 1)
        assert ana.pairwise_sizes == (2, 2, 2)
        assert not ana.strict_crossings

    def test_strict_flag_recorded(self):
        g, t = star_triple()
        ana = analyze_triple(g, t, strict_t=True)
        assert ana.strict_crossings
        assert ana.t_counts == (0, 0, 0)

    def test_zero_iff_common_vertex(self):
        for g in corpus(5):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) < 3:
                continue
            for combo in combinations(lp.paths, 3):
                t = PathTriple(combo)
                ana = analyze_triple(g, t)
                meet = frozenset.intersection(*(frozenset(p.vertices) for p in t.paths))
                assert (ana.f == 0) == bool(meet)
                if meet:
                    assert ana.witnesses == meet

    @staticmethod
    def assert_sizes_match_oracle(g, t):
        ana = analyze_triple(g, t)
        x_sizes, pairwise, meet = oracle_triple_sizes(t.paths)
        assert (ana.x_sizes, ana.pairwise_sizes) == (x_sizes, pairwise)
        assert (ana.f == 0) == bool(meet)

    def test_sizes_match_frozenset_oracle_on_corpus(self):
        # Every triple where a graph has at most 300, else 300 at seeded
        # random positions: the densest six-vertex graphs have millions.
        rng = random.Random(7)
        for g in corpus_up_to(6):
            stream = TripleStream(enumerate_longest_paths(g))
            if stream.total <= 300:
                triples = list(stream)
            else:
                triples = [stream[i] for i in rng.sample(range(stream.total), 300)]
            for t in triples:
                self.assert_sizes_match_oracle(g, t)

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_sizes_match_frozenset_oracle_on_random_graphs(self, g, rng):
        stream = TripleStream(enumerate_longest_paths(g))
        assume(stream.total > 0)
        for i in rng.sample(range(stream.total), min(stream.total, 20)):
            self.assert_sizes_match_oracle(g, stream[i])


class TestTripleAnalyzer:
    """One analyser per graph, its memos shared by all of the graph's
    triples, against a fresh ``analyze_triple`` per triple."""

    @staticmethod
    def assert_matches_fresh_analysis(g, cap=300):
        triples = list(TripleStream(enumerate_longest_paths(g), cap))
        for strict in (False, True):
            analyze = TripleAnalyzer(g, strict)
            for t in triples:
                assert analyze(t) == analyze_triple(g, t, strict_t=strict)
        return len(triples)

    def test_matches_fresh_analysis_on_corpus(self):
        # The first 300 triples of each graph: neighbours in canonical
        # order share paths and vertex sets, so the memos are hit.
        assert sum(self.assert_matches_fresh_analysis(g) for g in corpus_up_to(6)) > 10_000

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(max_n=9))
    def test_matches_fresh_analysis_on_random_graphs(self, g):
        self.assert_matches_fresh_analysis(g)

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(extra_per_vertex=1, max_n=9), st.randoms(use_true_random=False))
    def test_matches_fresh_analysis_on_arbitrary_paths(self, g, rng):
        # Triples of any simple paths, so that f > 0 occurs; picks from a
        # few paths make vertex sets repeat.
        paths = enumerate_all_simple_paths(g)
        few = rng.sample(paths, min(8, len(paths)))
        triples = {PathTriple(tuple(rng.sample(few, 3))) for _ in range(40)}
        for strict in (False, True):
            analyze = TripleAnalyzer(g, strict)
            for t in sorted(triples, key=lambda t: t.paths):
                assert analyze(t) == analyze_triple(g, t, strict_t=strict)

    def test_fills_its_own_distances(self):
        # A triangle 3-4-5 with leaves 0, 1, 2 on vertex 5: its six longest
        # paths, leaf-5-3-4 and leaf-5-4-3, lie on three vertex sets.
        g = from_edge_list(6, [(0, 5), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])
        lp = enumerate_longest_paths(g)
        analyze = TripleAnalyzer(g)
        for t in TripleStream(lp):
            analyze(t)
        assert sorted(analyze.distances) == [0b111001, 0b111010, 0b111100]
        assert len(lp.paths) == 6
