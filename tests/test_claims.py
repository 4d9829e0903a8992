"""Claim checkers: verdict logic, the triple-claim predicates, integer-exact
bounds, and the longest-path intersection set."""

from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, corpus, corpus_up_to, cycle_graph, star_graph
from gallai.claims import (
    HOLDS,
    SKIPPED_TRUNCATED,
    VACUOUS,
    VIOLATED,
    CONJECTURE_CLAIMS,
    PROVEN_CLAIMS,
    TRIPLE_CLAIMS,
    TruncatedEnumerationError,
    case1_inequality,
    case2_inequality,
    check_prop1,
    check_triple,
    crossing_length_inequality,
    gallai_vertex_set,
    lemma21_inequality,
    lemma22_inequality,
    theorem1_inequality,
    triple_verdict,
)
from gallai.graphs import _distance_list, from_edge_list, graph_key
from gallai.paths import DEFAULT_PATH_CAP, LongestPathTable, Path, enumerate_longest_paths
from gallai.triples import PathTriple, TripleAnalysis, analyze_triple


def star_setup():
    g = star_graph(3)
    lp = enumerate_longest_paths(g)
    return g, lp, PathTriple(tuple(lp.paths))


def cycle_setup():
    g = cycle_graph(5)
    lp = enumerate_longest_paths(g)
    return g, lp, PathTriple(tuple(lp.paths[:3]))


class TestInequalities:
    def test_lemma21_boundary(self):
        # 2*13 = 26 against 3*7 + 2 + 3 = 26.
        assert lemma21_inequality(13, 7, (2, 0, 0))
        assert not lemma21_inequality(12, 7, (2, 0, 0))

    def test_lemma22_negative_rhs(self):
        assert lemma22_inequality((0, 0, 0), (1, 1, 1), 0)
        assert lemma22_inequality((0, 0, 0), (5, 5, 5), 0)
        assert lemma22_inequality((0, 0, 0), (2, 2, 2), 1)
        assert not lemma22_inequality((0, 1, 1), (2, 2, 2), 2)

    def test_theorem1_boundaries(self):
        assert theorem1_inequality(7, 0)
        assert theorem1_inequality(7, 1)       # 13 <= 13
        assert not theorem1_inequality(6, 1)   # 13 > 12

    def test_case_bounds_arithmetic(self):
        assert case1_inequality(9, 1)          # 26 <= 27
        assert not case1_inequality(8, 1)      # 26 > 25
        assert case2_inequality(5, 0)          # 0 <= 22
        assert not case2_inequality(7, 1)      # 27 > 26

    def test_crossing_length_bound(self):
        assert crossing_length_inequality(4, 1)
        assert not crossing_length_inequality(3, 1)


class TestProp1:
    def test_star_pair(self):
        g, lp, _ = star_setup()
        v = check_prop1(g, Path((1, 0, 2)), Path((2, 0, 3)), longest_paths=lp)
        assert v.status == HOLDS
        assert v.witness["common"] == [0, 2]

    def test_cycle_pair(self):
        g, lp, _ = cycle_setup()
        v = check_prop1(g, lp.paths[0], lp.paths[1], longest_paths=lp)
        assert v.status == HOLDS
        assert len(v.witness["common"]) == 5

    def test_identical_paths_rejected(self):
        g, lp, _ = star_setup()
        with pytest.raises(ValueError):
            check_prop1(g, lp.paths[0], lp.paths[0], longest_paths=lp)

    def test_non_longest_rejected(self):
        g, lp, _ = star_setup()
        with pytest.raises(ValueError):
            check_prop1(g, Path((0, 1)), lp.paths[0], longest_paths=lp)

    def test_every_pair_in_small_corpus(self):
        # Proven statement: any failure is an implementation bug.
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            for a, b in combinations(lp.paths, 2):
                assert check_prop1(g, a, b, longest_paths=lp).status == HOLDS


class TestConjectureZ:
    def test_star(self):
        g, lp, t = star_setup()
        v = check_triple("conj_Z", g, t, longest_paths=lp)
        assert v.status == HOLDS
        assert v.witness["common"] == [0]

    def test_cycle(self):
        g, lp, t = cycle_setup()
        assert check_triple("conj_Z", g, t, longest_paths=lp).status == HOLDS

    def test_skipped_on_truncated_enumeration(self):
        # A truncated table lists no paths: the triple comes from the full
        # listing, and the verdict still refuses it.
        g = cycle_graph(5)
        lp = enumerate_longest_paths(g, cap=3)
        assert lp.paths == ()
        t = PathTriple(enumerate_longest_paths(g).paths[:3])
        v = check_triple("conj_Z", g, t, longest_paths=lp)
        assert v.status == SKIPPED_TRUNCATED


class TestLemma21:
    def test_vacuous_at_zero(self):
        g, lp, t = star_setup()
        assert check_triple("lemma21", g, t, longest_paths=lp).status == VACUOUS


class TestLemma22:
    def test_star(self):
        g, lp, t = star_setup()
        v = check_triple("lemma22", g, t, longest_paths=lp)
        assert v.status == HOLDS
        assert v.witness["x_sizes"] == [0, 0, 0]

    def test_cycle(self):
        g, lp, t = cycle_setup()
        assert check_triple("lemma22", g, t, longest_paths=lp).status == HOLDS


class TestLemma23:
    def test_star_holds(self):
        g, lp, t = star_setup()
        assert check_triple("lemma23", g, t, longest_paths=lp).status == HOLDS

    def test_cycle_vacuous(self):
        g, lp, t = cycle_setup()
        assert check_triple("lemma23", g, t, longest_paths=lp).status == VACUOUS


class TestTheorem1:
    def test_star(self):
        g, lp, t = star_setup()
        v = check_triple("thm1", g, t, longest_paths=lp)
        assert v.status == HOLDS
        assert v.witness == {"n": 4, "f": 0}


class TestCaseBounds:
    def test_cycle_case2(self):
        g, lp, t = cycle_setup()
        v = check_triple("case_bounds", g, t, longest_paths=lp)
        assert v.claim == "case2_bound"
        assert v.status == HOLDS
        assert v.witness["t_min"] == 5
        assert v.witness["proof_internal_length_bound"]["holds"]

    def test_star_vacuous(self):
        g, lp, t = star_setup()
        v = check_triple("case_bounds", g, t, longest_paths=lp)
        assert v.status == VACUOUS
        assert v.witness["t_min"] == 1


class TestConjecture4:
    def test_cycle_vacuous(self):
        g, lp, t = cycle_setup()
        assert check_triple("conj4", g, t, longest_paths=lp).status == VACUOUS

    def test_star_vacuous(self):
        g, lp, t = star_setup()
        assert check_triple("conj4", g, t, longest_paths=lp).status == VACUOUS


def fabricated(f, t_counts, x_sizes=(0, 0, 0)):
    """A triple analysis no real longest-path triple up to n = 8 has."""
    return TripleAnalysis(f, frozenset({0}), x_sizes, t_counts, (frozenset(),) * 3)


def status(name, n, l, analysis):
    claim, verdict, _ = TRIPLE_CLAIMS[name](n, l, analysis)
    return claim, verdict


class TestPredicates:
    """Every status of every triple claim, at each inequality's boundary."""

    def test_conj_z(self):
        assert status("conj_Z", 5, 4, fabricated(0, (1, 1, 1))) == ("conj_Z", HOLDS)
        assert status("conj_Z", 5, 4, fabricated(1, (1, 1, 1))) == ("conj_Z", VIOLATED)

    def test_lemma21(self):
        # 2*13 = 26 against 3*7 + 2 + 3 = 26.
        assert status("lemma21", 13, 7, fabricated(0, (3, 3, 3), (2, 0, 0)))[1] == VACUOUS
        assert status("lemma21", 13, 7, fabricated(1, (3, 3, 3), (2, 0, 0)))[1] == HOLDS
        assert status("lemma21", 12, 7, fabricated(1, (3, 3, 3), (2, 0, 0)))[1] == VIOLATED

    def test_lemma22(self):
        assert status("lemma22", 20, 9, fabricated(2, (2, 3, 2), (2, 3, 2)))[1] == HOLDS
        assert status("lemma22", 20, 9, fabricated(2, (2, 3, 2), (2, 2, 2)))[1] == VIOLATED

    @pytest.mark.parametrize("name, crossings", [("lemma23", 1), ("conj4", 2)])
    def test_forced_zero(self, name, crossings):
        assert status(name, 9, 5, fabricated(1, (3, 4, 5)))[1] == VACUOUS
        assert status(name, 9, 5, fabricated(0, (crossings, 4, 5)))[1] == HOLDS
        assert status(name, 9, 5, fabricated(1, (5, crossings, 4)))[1] == VIOLATED

    def test_theorem1(self):
        assert status("thm1", 7, 4, fabricated(1, (3, 3, 3)))[1] == HOLDS       # 13 <= 13
        assert status("thm1", 6, 4, fabricated(1, (3, 3, 3)))[1] == VIOLATED    # 13 > 12

    def test_case_bounds_vacuous_below_two_crossings(self):
        claim, verdict, info = TRIPLE_CLAIMS["case_bounds"](9, 4, fabricated(1, (1, 2, 3)))
        assert (claim, verdict) == ("case1_bound", VACUOUS)
        assert info == {"t_min": 1, "deferred_to": "lemma23"}

    def test_case1_bound(self):
        # 26 f <= 2n + 9 and l >= 6 f - 2, both at equality or one short.
        assert status("case_bounds", 9, 4, fabricated(1, (2, 3, 3))) == ("case1_bound", HOLDS)
        assert status("case_bounds", 8, 4, fabricated(1, (2, 3, 3))) == ("case1_bound", VIOLATED)
        assert status("case_bounds", 9, 3, fabricated(1, (2, 3, 3))) == ("case1_bound", VIOLATED)

    def test_case2_bound(self):
        # 27 f <= 2n + 12: 27 <= 28 at n = 8, 27 > 26 at n = 7.
        assert status("case_bounds", 8, 4, fabricated(1, (3, 3, 4))) == ("case2_bound", HOLDS)
        assert status("case_bounds", 7, 4, fabricated(1, (3, 3, 4))) == ("case2_bound", VIOLATED)
        assert status("case_bounds", 8, 3, fabricated(1, (3, 3, 4))) == ("case2_bound", VIOLATED)

    def test_length_probe_failure_is_in_the_witness(self):
        _, _, info = TRIPLE_CLAIMS["case_bounds"](8, 3, fabricated(1, (3, 3, 4)))
        assert info["proof_internal_length_bound"] == {
            "inequality": "l >= 6*f - 2", "l": 3, "holds": False,
        }

    def test_violated_witness_replays(self):
        g, lp, t = star_setup()
        fake = fabricated(1, (1, 1, 1), (0, 1, 0))
        violated = set()
        for name in TRIPLE_CLAIMS:
            v = check_triple(name, g, t, longest_paths=lp, analysis=fake)
            assert v == triple_verdict(name, g, t, lp.length, fake)
            if v.status != VIOLATED:
                continue
            violated.add(v.claim)
            assert v.witness["graph"] == graph_key(g)
            assert v.witness["paths"] == [list(p.vertices) for p in t.paths]
            assert v.witness["f"] == 1
            assert v.witness["witnesses"] == [0]
            assert v.witness["x_sizes"] == [0, 1, 0]
            assert v.witness["t_counts"] == [1, 1, 1]
            assert v.witness["strict_crossings"] is False
            _, _, info = TRIPLE_CLAIMS[name](g.n, lp.length, fake)
            assert info.items() <= v.witness.items()
        # 2*4 < 3*2 + 1 + 3 and 13 > 4 + 6; lemma22's right side is 0.
        assert violated == {"conj_Z", "lemma21", "lemma23", "thm1"}


class TestStatusMemoKey:
    """A scan decides each claim once per graph and (f, x_sizes, t_counts):
    no predicate's claim id or status may read the witnesses or the
    pairwise sizes. n, l and the crossing convention are fixed per graph."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(0, 39),
        st.integers(0, 6),
        st.tuples(*[st.integers(0, 12)] * 3),
        st.tuples(*[st.integers(0, 8)] * 3),
        st.booleans(),
        st.lists(st.frozensets(st.integers(0, 39)), min_size=2, max_size=2),
        st.lists(st.tuples(*[st.integers(0, 40)] * 3), min_size=2, max_size=2),
    )
    def test_status_reads_only_the_memo_key(self, n, l, f, x, t, strict, witnesses, pairwise):
        a, b = (TripleAnalysis(f, w, x, t, p, strict) for w, p in zip(witnesses, pairwise))
        for name in TRIPLE_CLAIMS:
            assert status(name, n, l, a) == status(name, n, l, b), name


class TestCheckTripleBoundary:
    def test_unknown_claim(self):
        g, lp, t = star_setup()
        with pytest.raises(ValueError):
            check_triple("prop1", g, t, longest_paths=lp)

    def test_non_longest_rejected(self):
        g = cycle_graph(5)
        t = PathTriple.make(g, (0, 1), (1, 2), (2, 3))
        with pytest.raises(ValueError):
            check_triple("thm1", g, t)

    def test_enumerates_when_not_given(self):
        g, lp, t = star_setup()
        assert check_triple("conj4", g, t) == check_triple("conj4", g, t, longest_paths=lp)


class TestCorpusSweep:
    def test_all_claims_on_all_triples_up_to_five(self):
        # Everything proven holds or is vacuous, the conjectures hold, and
        # the single-crossing implication chain stays consistent.
        triples_seen = 0
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) < 3:
                continue
            for combo in combinations(lp.paths, 3):
                triples_seen += 1
                t = PathTriple(combo)
                ana = analyze_triple(g, t)
                statuses = {}
                for name in TRIPLE_CLAIMS:
                    v = check_triple(name, g, t, longest_paths=lp, analysis=ana)
                    assert v.status in (HOLDS, VACUOUS), (v.claim, v.witness)
                    statuses[v.claim] = v.status
                if statuses.get("lemma23") == VIOLATED:
                    assert statuses["conj_Z"] == VIOLATED
        assert triples_seen > 35000

    def test_sampled_triples_on_six_and_seven_vertices(self):
        # Triple spaces explode here (K6 alone has 7.7 million), so each
        # graph contributes a deterministic slice; exhaustive coverage at
        # these sizes comes from the scan's common-vertex shortcut.
        import random

        rng = random.Random(7)
        for n in (6, 7):
            for g in corpus(n):
                lp = enumerate_longest_paths(g)
                if len(lp.paths) < 3:
                    continue
                paths = list(lp.paths)
                picks = set()
                for _ in range(10):
                    picks.add(tuple(sorted(rng.sample(range(len(paths)), 3))))
                for idxs in sorted(picks):
                    t = PathTriple(tuple(paths[i] for i in idxs))
                    ana = analyze_triple(g, t)
                    for name in TRIPLE_CLAIMS:
                        v = check_triple(name, g, t, longest_paths=lp, analysis=ana)
                        assert v.status in (HOLDS, VACUOUS), (v.claim, v.witness)


class TestGallaiVertexSet:
    def test_star_center(self):
        assert gallai_vertex_set(star_graph(3)) == {0}

    def test_cycle_everything(self):
        assert gallai_vertex_set(cycle_graph(5)) == frozenset(range(5))

    def test_contained_in_every_longest_path(self):
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            gal = gallai_vertex_set(g, longest_paths=lp)
            for p in lp.paths:
                assert gal <= frozenset(p.vertices)

    def test_trees_contain_their_centers(self):
        # Eccentricity-minimal vertices of a tree lie on every longest path.
        for n in range(1, 8):
            for g in corpus(n):
                if g.m != g.n - 1:
                    continue
                ecc = []
                for v in range(g.n):
                    dist = _distance_list(g.adjacency, g.n, 1 << v)
                    ecc.append(max(d for d in dist if d is not None))
                centers = {v for v in range(g.n) if ecc[v] == min(ecc)}
                assert centers <= gallai_vertex_set(g)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            gallai_vertex_set(from_edge_list(2, []))

    def test_truncated_rejected(self):
        g = cycle_graph(5)
        lp = enumerate_longest_paths(g, cap=2)
        with pytest.raises(TruncatedEnumerationError):
            gallai_vertex_set(g, longest_paths=lp)

    def test_summary_agrees_with_enumeration(self):
        for g in corpus_up_to(6):
            lp = enumerate_longest_paths(g)
            # Both read the table's core; the listed paths must agree.
            listed = frozenset.intersection(*(frozenset(p.vertices) for p in lp.paths))
            assert gallai_vertex_set(g) == gallai_vertex_set(g, longest_paths=lp) == listed

    def test_exact_beyond_the_cap(self):
        # K9 with three leaves on vertex 0: each longest path runs from a
        # leaf through all of K9, so 3 * 8! of them, more than the default
        # enumeration cap, and none holds two leaves.
        k9 = complete_graph(9)
        g = from_edge_list(12, k9.edges() + [(0, 9), (0, 10), (0, 11)])
        assert LongestPathTable(g).count == 3 * factorial(8) > DEFAULT_PATH_CAP
        assert gallai_vertex_set(g) == frozenset(range(9))


class TestClaimRegistry:
    def test_proven_and_conjecture_disjoint(self):
        assert not (PROVEN_CLAIMS & CONJECTURE_CLAIMS)
