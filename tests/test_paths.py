"""Path objects, exact longest-path search, and the unpruned oracle."""

import gc
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conftest import (
    complete_graph,
    corpus,
    corpus_up_to,
    cycle_graph,
    enumerate_all_simple_paths,
    oracle_longest_path_length,
    path_graph,
    petersen_graph,
    random_graphs,
    star_graph,
    within_seconds,
)
from gallai import paths
from gallai.graphs import from_edge_list, iter_bits
from gallai.paths import (
    DEFAULT_PATH_CAP,
    MAX_UNCAPPED_STATES,
    BudgetError,
    LongestPathTable,
    Path,
    enumerate_longest_paths,
    longest_path_length,
)


class TestPath:
    def test_canonical_orientation(self):
        assert Path((2, 1, 0)).vertices == (0, 1, 2)
        assert Path((0, 1, 2)).vertices == (0, 1, 2)
        assert Path((1, 0, 2)).vertices == (1, 0, 2)

    def test_single_vertex(self):
        p = Path((3,))
        assert p.length == 0
        assert p.ends == (3, 3)

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            Path((0, 1, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Path(())

    def test_make_validates_adjacency(self):
        g = path_graph(3)
        assert Path.make(g, [0, 1, 2]).vertices == (0, 1, 2)
        with pytest.raises(ValueError):
            Path.make(g, [0, 2])
        with pytest.raises(ValueError):
            Path.make(g, [0, 1, 5])

    def test_ordering_is_lexicographic(self):
        assert Path((0, 1)) < Path((0, 1, 2)) < Path((1, 0, 2))

    def test_mask_and_set(self):
        p = Path((0, 2, 3))
        assert p.mask == 0b1101
        assert list(iter_bits(p.mask)) == [0, 2, 3]


class TestLongestPathLength:
    def test_path_graph(self):
        for n in range(1, 7):
            assert longest_path_length(path_graph(n)) == n - 1

    def test_cycle(self):
        assert longest_path_length(cycle_graph(5)) == 4

    def test_star(self):
        assert longest_path_length(star_graph(3)) == 2

    def test_edgeless(self):
        assert longest_path_length(from_edge_list(3, [])) == 0

    def test_disconnected_takes_max_over_components(self):
        g = from_edge_list(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
        assert longest_path_length(g) == 3

    def test_petersen(self):
        # Frozen from the unpruned oracle; re-derived below.
        pete = petersen_graph()
        assert longest_path_length(pete) == 9
        oracle_best = max(p.length for p in enumerate_all_simple_paths(pete))
        assert oracle_best == 9

    def test_monotone_under_edge_addition(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 7)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            g = from_edge_list(n, edges)
            non_edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if not g.has_edge(i, j)
            ]
            if not non_edges:
                continue
            extra = rng.choice(non_edges)
            bigger = from_edge_list(n, edges + [extra])
            assert longest_path_length(bigger) >= longest_path_length(g)

    # The search starts only at vertices that are not cut vertices and
    # follows forced chains in a loop; the plain branch and bound has
    # neither shortcut.

    def test_matches_oracle_on_corpus(self):
        for g in corpus_up_to(7):
            assert longest_path_length(g) == oracle_longest_path_length(g)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs())
    def test_matches_oracle_on_random_graphs(self, g):
        # Disconnected graphs included: every component has a start.
        assert longest_path_length(g) == oracle_longest_path_length(g)

    def test_no_longest_path_ends_at_a_cut_vertex(self):
        # The start rule: a skipped vertex never ends a longest path.
        for g in corpus_up_to(7):
            cuts = paths._cut_vertices(g.adjacency)
            for p in enumerate_longest_paths(g).paths:
                assert not cuts >> p.vertices[0] & 1 and not cuts >> p.vertices[-1] & 1

    def test_cut_vertices_of_small_shapes(self):
        assert paths._cut_vertices(path_graph(5).adjacency) == 0b01110
        assert paths._cut_vertices(star_graph(3).adjacency) == 0b0001
        assert paths._cut_vertices(cycle_graph(5).adjacency) == 0
        # Two triangles sharing vertex 2, and an isolated vertex 5.
        bowtie = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert paths._cut_vertices(bowtie.adjacency) == 0b000100
        assert longest_path_length(bowtie) == 4

    def test_deadline_raises(self):
        g = complete_graph(9)
        deadline = time.monotonic() - 1.0
        with pytest.raises(BudgetError):
            # An already-expired deadline must abort rather than answer.
            longest_path_length(g, deadline=deadline)


class TestEnumerateLongestPaths:
    def test_path_graph(self):
        lp = enumerate_longest_paths(path_graph(3))
        assert lp.length == 2
        assert [p.vertices for p in lp.paths] == [(0, 1, 2)]
        assert not lp.truncated

    def test_star(self):
        lp = enumerate_longest_paths(star_graph(3))
        assert lp.length == 2
        assert {p.vertices for p in lp.paths} == {(1, 0, 2), (1, 0, 3), (2, 0, 3)}

    def test_cycle_five(self):
        lp = enumerate_longest_paths(cycle_graph(5))
        assert lp.length == 4
        assert len(lp.paths) == 5

    def test_complete_seven_count(self):
        # 7!/2 Hamiltonian paths.
        lp = enumerate_longest_paths(complete_graph(7))
        assert lp.length == 6
        assert len(lp.paths) == 2520

    def test_edgeless_singletons(self):
        lp = enumerate_longest_paths(from_edge_list(3, []))
        assert lp.length == 0
        assert [p.vertices for p in lp.paths] == [(0,), (1,), (2,)]

    def test_cap_truncates_to_nothing(self):
        lp = enumerate_longest_paths(cycle_graph(5), cap=3)
        assert lp.truncated
        assert lp.paths == ()

    def test_cap_not_hit_when_exact(self):
        lp = enumerate_longest_paths(cycle_graph(5), cap=5)
        assert not lp.truncated
        assert len(lp.paths) == 5

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            enumerate_longest_paths(path_graph(2), cap=0)

    def test_sorted_and_deduplicated(self):
        lp = enumerate_longest_paths(complete_graph(4))
        assert list(lp.paths) == sorted(lp.paths)
        assert len(set(lp.paths)) == len(lp.paths)

    def test_membership(self):
        lp = enumerate_longest_paths(star_graph(3))
        assert Path((1, 0, 2)) in lp.paths
        assert Path((0, 1)) not in lp.paths

    def test_returned_paths_are_valid(self):
        for g in corpus(5):
            lp = enumerate_longest_paths(g)
            for p in lp.paths:
                assert p.length == lp.length
                Path.make(g, p.vertices)
                assert p.vertices <= p.vertices[::-1]


class TestOracle:
    def test_path_three_count(self):
        assert len(enumerate_all_simple_paths(path_graph(3))) == 6

    def test_single_edge(self):
        paths = enumerate_all_simple_paths(path_graph(2))
        assert {p.vertices for p in paths} == {(0,), (1,), (0, 1)}

    def test_triangle_count(self):
        assert len(enumerate_all_simple_paths(complete_graph(3))) == 9

    def test_pruned_enumeration_matches_oracle_exhaustively(self):
        # The summary and the walked paths must agree with the unpruned
        # oracle's max-length filter on every connected graph up to seven
        # vertices.
        for g in corpus_up_to(7):
            best, longest, core = oracle_longest(g)
            assert summary(g) == (best, len(longest), core)
            lp = enumerate_longest_paths(g)
            assert lp.length == best
            assert list(lp.paths) == longest


class TestHamiltonianPath:
    """A graph has a Hamiltonian path exactly when its longest paths span
    every vertex; the enumerator must find all of them or none."""

    @staticmethod
    def spanning(graph):
        return [p for p in enumerate_longest_paths(graph).paths if len(p) == graph.n]

    def test_cycle(self):
        assert len(self.spanning(cycle_graph(5))) == 5

    def test_star_lacks_one(self):
        assert self.spanning(star_graph(3)) == []

    def test_petersen(self):
        pete = petersen_graph()
        oracle = [p for p in enumerate_all_simple_paths(pete) if len(p) == pete.n]
        assert oracle
        assert self.spanning(pete) == oracle

    def test_single_vertex(self):
        assert self.spanning(from_edge_list(1, [])) == [Path((0,))]

    def test_disconnected(self):
        assert self.spanning(from_edge_list(3, [(0, 1)])) == []

    def test_agrees_with_length(self):
        for g in corpus_up_to(5):
            assert bool(self.spanning(g)) == (longest_path_length(g) == g.n - 1)


def summary(graph):
    """The longest paths in three numbers, read off an uncapped table
    without listing any: their length, count and common-vertex mask."""
    table = LongestPathTable(graph)
    assert "paths" not in vars(table)
    return table.length, table.count, table.core


def oracle_longest(graph):
    """The longest paths by filtering every simple path, and the mask of
    the vertices they all share."""
    allp = enumerate_all_simple_paths(graph)
    best = max(p.length for p in allp)
    longest = [p for p in allp if p.length == best]
    core = (1 << graph.n) - 1
    for p in longest:
        core &= p.mask
    return best, longest, core


class TestCompletionTable:
    """The summary and the walked paths against the unpruned oracle."""

    @settings(max_examples=150, deadline=None)
    @given(random_graphs())
    def test_matches_oracle_on_random_graphs(self, g):
        # Disconnected graphs included: the maximum ranges over components.
        best, longest, core = oracle_longest(g)
        assert summary(g) == (best, len(longest), core)
        assert list(enumerate_longest_paths(g).paths) == longest
        cap = max(1, len(longest) // 2)
        capped = enumerate_longest_paths(g, cap=cap)
        assert capped.truncated == (len(longest) > cap)
        assert list(capped.paths) == ([] if capped.truncated else longest)

    @staticmethod
    def assert_walked_paths_validate(g):
        # The walk builds its paths without the constructor's checks.
        for p in enumerate_longest_paths(g).paths:
            checked = Path(p.vertices)
            assert p == checked and hash(p) == hash(checked)
            assert (p.vertices, p.mask) == (checked.vertices, checked.mask)
            assert type(p.vertices) is tuple

    def test_walked_paths_equal_validated_paths_on_corpus(self):
        for g in corpus_up_to(7):
            self.assert_walked_paths_validate(g)

    @settings(max_examples=100, deadline=None)
    @given(random_graphs())
    def test_walked_paths_equal_validated_paths_on_random_graphs(self, g):
        self.assert_walked_paths_validate(g)

    def test_capped_table_lists_all_or_nothing(self):
        # K7 has 2520 longest paths.
        full = enumerate_longest_paths(complete_graph(7))
        for cap, listed in ((100, ()), (2519, ()), (2520, full.paths)):
            capped = enumerate_longest_paths(complete_graph(7), cap=cap)
            assert capped.truncated == (cap < 2520)
            assert capped.paths == listed

    def test_paths_are_walked_once_on_first_use(self, monkeypatch):
        walked = []
        real = Path._trusted
        monkeypatch.setattr(
            Path, "_trusted", classmethod(lambda cls, *a: walked.append(a) or real(*a)))
        table = LongestPathTable(cycle_graph(5))
        assert walked == []
        first = table.paths
        assert len(walked) == len(first) == 5
        assert table.paths is first and len(walked) == 5

    def test_summary_counts_past_any_cap(self):
        # K9 has 9!/2 Hamiltonian paths, more than the default cap.
        assert summary(complete_graph(9)) == (8, 181440, (1 << 9) - 1)
        assert enumerate_longest_paths(complete_graph(9)).truncated

    def test_single_vertex_and_edgeless(self):
        assert summary(from_edge_list(1, [])) == (0, 1, 1)
        assert summary(from_edge_list(3, [])) == (0, 3, 0)

    def test_deadline_reaches_the_table(self, monkeypatch):
        # With the length search out of the way, the memoised search must
        # still give up on an expired deadline rather than answer.
        monkeypatch.setattr(paths, "longest_path_length", lambda graph, deadline=None: 8)
        expired = time.monotonic() - 1.0
        with pytest.raises(BudgetError):
            LongestPathTable(complete_graph(9), deadline=expired)
        with pytest.raises(BudgetError):
            enumerate_longest_paths(complete_graph(9), deadline=expired)


    def test_deadline_reaches_the_walk(self, monkeypatch):
        # The table is filled in time; the clock then runs out while the
        # paths are being listed.
        table = LongestPathTable(complete_graph(8), deadline=time.monotonic() + 60)
        monkeypatch.setattr(paths, "time", SimpleNamespace(monotonic=lambda: math.inf))
        with pytest.raises(BudgetError):
            table.paths


    def test_search_deeper_than_the_recursion_limit_is_an_error(self, monkeypatch):
        # The length search walks a chain of forced steps in a loop, so a
        # 1,200-vertex path costs it no stack at all ...
        long_path = path_graph(1200)
        assert longest_path_length(long_path) == 1199
        # ... but it recurses once per branch: a comb (a 1,200-vertex spine
        # with a leaf on every spine vertex) branches at every step.
        spine = 1200
        comb = from_edge_list(2 * spine, [(i, i + 1) for i in range(spine - 1)]
                              + [(i, spine + i) for i in range(spine)])
        with pytest.raises(ValueError, match="recursion limit"):
            longest_path_length(comb)
        # With the length search out of the way, the table fails the same way.
        monkeypatch.setattr(paths, "longest_path_length", lambda graph, deadline=None: 1199)
        with pytest.raises(ValueError, match="recursion limit"):
            LongestPathTable(long_path)


class TestCap:
    """A capped table stops once more than ``cap`` paths are certain."""

    def test_count_and_core_around_the_cap(self):
        # K5 has 60 longest paths.
        for cap in (1, 59, 60, 61):
            table = LongestPathTable(complete_graph(5), cap)
            assert table.truncated == (cap < 60)
            assert (table.count, table.core) == ((None, None) if cap < 60 else (60, 31))

    def test_dense_graph_fill_stays_small(self):
        # K22 has 22!/2 longest paths over 22 * 2^21 memo states.
        # The deadline turns a fill that does not stop into a quick failure.
        k22 = complete_graph(22)
        table = LongestPathTable(k22, DEFAULT_PATH_CAP, deadline=time.monotonic() + 10)
        assert table.truncated and table.length == 21
        assert len(table._table) < 10_000
        assert table.paths == ()

    def test_uncapped_table_is_bounded(self):
        # K22 has 22 * 2^21 memo states, gigabytes of table uncapped.
        with pytest.raises(ValueError, match=f"past {MAX_UNCAPPED_STATES} states"):
            within_seconds(30, lambda: LongestPathTable(complete_graph(22)))

    def test_capped_walk_matches_oracle_or_lists_nothing(self):
        # Caps that stop the fill in the middle of a start vertex's subtree.
        for g in (petersen_graph(), complete_graph(6), cycle_graph(7)):
            _, longest, _ = oracle_longest(g)
            for cap in (1, 2, 7, len(longest) - 1, len(longest)):
                lp = enumerate_longest_paths(g, cap)
                assert lp.truncated == (cap < len(longest))
                assert list(lp.paths) == ([] if lp.truncated else longest)


class TestNoReferenceCycles:
    """A search frees its memo and closures when it returns, not at the
    next cyclic collection."""

    @pytest.mark.parametrize(
        "search",
        [
            longest_path_length,
            LongestPathTable,
            enumerate_longest_paths,
            lambda g: enumerate_longest_paths(g, cap=10),
            enumerate_all_simple_paths,
        ],
        ids=["length", "summary", "enumerate", "enumerate_capped", "oracle"],
    )
    def test_search_leaves_no_cyclic_garbage(self, search):
        g = complete_graph(7)
        gc.collect()
        gc.disable()
        try:
            search(g)
            assert gc.collect() == 0
        finally:
            gc.enable()
