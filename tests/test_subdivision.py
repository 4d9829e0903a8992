"""Pendant extension, edge subdivision, path lifting, and the exact
verification of the scaling behaviour."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    corpus,
    corpus_up_to,
    cycle_graph,
    oracle_isomorphic,
    oracle_longest_path_length,
    path_graph,
    spider_graph,
    star_graph,
    theta_graph,
)
import gallai.subdivision as subdivision
import gallai.triples as triples
from gallai.claims import HOLDS, SKIPPED_BUDGET, VIOLATED
from gallai.graphs import _distance_list as distance_list
from gallai.graphs import from_edge_list, is_connected, parse_graph6
from gallai.paths import BudgetError, Path, enumerate_longest_paths, longest_path_length
from gallai.subdivision import (
    Subdivisions,
    attach_pendants,
    build_instance,
    check_size_bound,
    restrict_to_triple,
    subdivide,
    verify_proposition,
)
from gallai.triples import PathTriple, TripleStream, f_value


def star_triple():
    g = star_graph(3)
    lp = enumerate_longest_paths(g)
    return g, PathTriple(tuple(lp.paths))


class TestAttachPendants:
    def test_star_becomes_spider(self):
        g, t = star_triple()
        ext = attach_pendants(g, t)
        assert ext.graph.n == 7
        assert ext.graph.m == 6
        assert oracle_isomorphic(ext.graph, spider_graph(3, 2))
        assert ext.pendant_map == {1: 4, 2: 5, 3: 6}
        assert all(len(p) == 5 for p in ext.paths)

    def test_shared_ends_give_two_pendants(self):
        # All three routes of the theta graph run hub to hub.
        g = theta_graph()
        t = PathTriple.make(g, [0, 2, 1], [0, 3, 1], [0, 4, 1])
        ext = attach_pendants(g, t)
        assert len(ext.pendant_map) == 2
        assert ext.graph.n == g.n + 2
        # Lifted routes share their pendant edges.
        p5, p6 = ext.pendant_map[0], ext.pendant_map[1]
        for p in ext.paths:
            assert p5 in p and p6 in p

    def test_six_distinct_ends_give_six_pendants(self):
        g = star_graph(6)
        t = PathTriple.make(g, [1, 0, 2], [3, 0, 4], [5, 0, 6])
        ext = attach_pendants(g, t)
        assert len(ext.pendant_map) == 6
        assert ext.graph.n == g.n + 6

    def test_pendants_have_degree_one(self):
        g, t = star_triple()
        ext = attach_pendants(g, t)
        for pend in ext.pendant_map.values():
            assert ext.graph.degree(pend) == 1

    def test_single_vertex_path_rejected(self):
        g = star_graph(3)
        t = PathTriple((Path((0,)), Path((0, 1)), Path((0, 2))))
        with pytest.raises(ValueError):
            attach_pendants(g, t)

    def test_origin_tags(self):
        # Source vertices keep their ids and neighbourhoods; the pendants
        # follow in sorted-end order, each hanging off its end.
        g, t = star_triple()
        ext = attach_pendants(g, t)
        low = (1 << g.n) - 1
        assert [ext.graph.adjacency[v] & low for v in range(g.n)] == list(g.adjacency)
        assert [ext.graph.neighbors(v) for v in range(g.n, ext.graph.n)] == [[1], [2], [3]]

    def test_trusted_extension_equals_the_validated_path(self):
        # _extend skips Path's checks: on every triple of the n <= 5
        # corpus each extended path must equal the path Path(...) builds
        # from the same vertices, hash and mask included.
        checked = 0
        for g in corpus_up_to(5):
            for triple in TripleStream(enumerate_longest_paths(g)):
                for p in attach_pendants(g, triple).paths:
                    ref = Path(p.vertices)
                    assert p.vertices == ref.vertices
                    assert hash(p) == hash(ref) and p == ref
                    assert p.mask == ref.mask
                    checked += 1
        assert checked == 3 * 45067, checked


class TestSubdivide:
    def test_spider_counts(self):
        g, t = star_triple()
        ext = attach_pendants(g, t)
        inst = subdivide(ext.graph, 1, ext.paths)
        assert inst.graph.n == 13
        assert inst.graph.m == 12
        assert [len(p) for p in inst.paths] == [9, 9, 9]

    def test_zero_is_identity(self):
        g, t = star_triple()
        inst = subdivide(g, 0, t.paths)
        assert inst.graph == g
        assert inst.paths == t.paths

    def test_single_edge_twice_gives_path_four(self):
        g = path_graph(2)
        inst = subdivide(g, 2, (Path((0, 1)),))
        assert oracle_isomorphic(inst.graph, path_graph(4))
        assert len(inst.paths[0]) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subdivide(path_graph(2), -1)

    def test_lifted_paths_are_valid(self):
        g, t = star_triple()
        inst = build_instance(g, t, 2)
        for p in inst.paths:
            Path.make(inst.graph, p.vertices)

    def test_count_identities_across_corpus(self):
        for g in corpus(4):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) < 3:
                continue
            t = PathTriple(tuple(lp.paths[:3]))
            ext = attach_pendants(g, t)
            for tt in (0, 1, 2, 3):
                inst = subdivide(ext.graph, tt, ext.paths)
                assert inst.graph.n == ext.graph.n + tt * ext.graph.m
                assert inst.graph.m == (tt + 1) * ext.graph.m
                for src, lifted in zip(ext.paths, inst.paths):
                    assert len(lifted) == (tt + 1) * (len(src) - 1) + 1

    def test_trusted_lift_equals_the_validated_path(self):
        # _lift skips Path's checks: each longest path with both ends in a
        # triple's end set, extended and lifted (n <= 5, t = 1, 2), must
        # equal the path Path(...) builds from the same vertices, mask
        # included.
        def reference(path, chains):
            verts = [path.vertices[0]]
            for a, b in zip(path.vertices, path.vertices[1:]):
                verts.extend(chains[(a, b)] if a < b else chains[(b, a)][::-1])
                verts.append(b)
            return Path(tuple(verts))

        checked = 0
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            end_sets = {frozenset(e for p in tr.paths for e in p.ends): tr for tr in TripleStream(lp)}
            for triple in end_sets.values():
                ext = attach_pendants(g, triple)
                extended = [
                    subdivision._extend(p, ext.pendant_map) for p in lp.paths
                    if all(e in ext.pendant_map for e in p.ends)
                ]
                for t in (1, 2):
                    chains = subdivide(ext.graph, t).chains
                    for p in extended:
                        lifted = subdivision._lift(p, chains)
                        ref = reference(p, chains)
                        assert lifted.vertices == ref.vertices
                        assert lifted.mask == ref.mask
                        checked += 1
        assert checked > 1000, checked

    def test_provenance_positions(self):
        # Interior vertices follow the source ids, edge by edge in sorted
        # order and position by position from the lower end.
        assert subdivide(path_graph(2), 2, (Path((0, 1)),)).paths[0].vertices == (0, 2, 3, 1)
        # The claw's edges are (0, 1), (0, 2), (0, 3); leaving leaf 1
        # walks the first chain backwards.
        inst = subdivide(star_graph(3), 2, (Path((1, 0, 2)),))
        assert inst.paths[0].vertices == (1, 5, 4, 0, 6, 7, 2)
        assert inst.graph.neighbors(0) == [4, 6, 8]
        assert inst.graph.neighbors(9) == [3, 8]

    def test_instance_id_layout(self):
        # Originals, then pendants, then the interior vertices.
        g, t = star_triple()
        inst = build_instance(g, t, 1)
        assert inst.source.n == g.n + 3
        for p in inst.paths:
            assert p.vertices[0] in (4, 5, 6) and p.vertices[-1] in (4, 5, 6)
            assert all(v >= inst.source.n for v in p.vertices[1::2])

    def test_deterministic_rebuild(self):
        g, t = star_triple()
        a = build_instance(g, t, 2)
        b = build_instance(g, t, 2)
        assert a.graph == b.graph
        assert a.paths == b.paths


class TestVerifyProposition:
    def test_star_small_multiplicities(self):
        g, t = star_triple()
        for tt in (0, 1, 2):
            v = verify_proposition(Subdivisions(g), t, tt)
            assert v.status == HOLDS, v.witness
            assert v.witness["subdivided_f"] == 0
            assert v.witness["original_witness"]

    def test_star_lengths(self):
        g, t = star_triple()
        subs = Subdivisions(g)
        assert verify_proposition(subs, t, 1).witness["subdivided_length"] == 8
        assert verify_proposition(subs, t, 2).witness["subdivided_length"] == 12

    def test_scaling_factor_on_cycle(self):
        g = cycle_graph(5)
        lp = enumerate_longest_paths(g)
        t = PathTriple(tuple(lp.paths[:3]))
        base_f, _ = f_value(g, t)
        v = verify_proposition(Subdivisions(g, lp), t, 2)
        assert v.status == HOLDS
        assert v.witness["subdivided_f"] == 3 * base_f

    def test_non_longest_triple_rejected(self):
        g = star_graph(3)
        t = PathTriple((Path((0, 1)), Path((0, 2)), Path((0, 3))))
        with pytest.raises(ValueError):
            verify_proposition(Subdivisions(g), t, 1)

    def test_budget_skip(self, monkeypatch):
        # Seven vertices and six edges after the pendants; t = 9 gives
        # 7 + 9 * 6 = 61 vertices, one over the limit.
        g, t = star_triple()
        subs = Subdivisions(g)
        v = verify_proposition(subs, t, 9)
        assert v.status == SKIPPED_BUDGET
        assert v.witness == {"vertices": 61, "max_vertices": 60}
        assert subs.memo == {}
        # The size is counted before anything is built, so a t whose graph
        # would take gigabytes is skipped at once.

        def refuse(*args, **kwargs):
            raise AssertionError("an over-limit graph was built")

        monkeypatch.setattr(subdivision, "attach_pendants", refuse)
        monkeypatch.setattr(subdivision, "subdivide", refuse)
        for tt, vertices in ((9, 61), (10**6, 7 + 6 * 10**6)):
            v = verify_proposition(subs, t, tt)
            assert v.status == SKIPPED_BUDGET
            assert v.witness == {"vertices": vertices, "max_vertices": 60}
        assert subs.memo == {}

    def test_adjacency_is_checked(self):
        # Reversing a stored chain keeps the lifted paths' lengths and vertex
        # sets, so only the edge-by-edge check can tell they are no longer
        # paths of the subdivided graph.
        g, t = star_triple()
        subs = Subdivisions(g)
        assert verify_proposition(subs, t, 2).status == HOLDS
        (_, inst, _), = subs.memo.values()
        inst.chains[(0, 1)] = inst.chains[(0, 1)][::-1]
        v = verify_proposition(subs, t, 2)
        assert v.status == VIOLATED
        assert False in v.witness["lifted_longest"]
        assert v.witness["subdivided_f"] == v.witness["expected_f"]


def oracle_subdivision(g, triple, t):
    """The per-instance check without a memo: build the instance and look
    the lifted paths up among the subdivided graph's listed longest paths.
    Returns the subdivided length, the membership list and the status."""
    base_f, _ = f_value(g, triple)
    inst = build_instance(g, triple, t)
    lp_sub = enumerate_longest_paths(inst.graph)
    assert not lp_sub.truncated
    members = [p in lp_sub.paths for p in inst.paths]
    sub_f, witnesses = f_value(inst.graph, PathTriple(inst.paths))
    holds = all(members) and sub_f == (t + 1) * base_f and min(witnesses) < g.n
    return lp_sub.length, members, HOLDS if holds else VIOLATED


class TestSubdividedReuse:
    def test_same_verdicts_with_and_without_reuse(self):
        checked = 0
        for g in corpus_up_to(4):
            lp = enumerate_longest_paths(g)
            subs = Subdivisions(g, lp)
            for triple in TripleStream(lp):
                for tt in (0, 1, 2):
                    v = verify_proposition(subs, triple, tt)
                    length, members, status = oracle_subdivision(g, triple, tt)
                    assert v.witness["subdivided_length"] == length
                    assert v.witness["lifted_longest"] == members
                    assert v.status == status
                    checked += 1
            # One entry per distinct (end set, t).
            end_sets = {
                frozenset(e for p in triple.paths for e in p.ends)
                for triple in TripleStream(lp)
            }
            assert len(subs.memo) == 3 * len(end_sets)
        assert checked > 0

    def test_entry_is_read_instead_of_enumerating(self, monkeypatch):
        g, t = star_triple()
        subs = Subdivisions(g)
        first = verify_proposition(subs, t, 1)
        assert len(subs.memo) == 1

        def refuse(*args, **kwargs):
            raise AssertionError("searched a graph already in the memo")

        monkeypatch.setattr(subdivision, "longest_path_length", refuse)
        monkeypatch.setattr(subdivision, "enumerate_longest_paths", refuse)
        assert verify_proposition(subs, t, 1) == first

    @pytest.mark.parametrize("g6", ["E?^o", "C~"])
    def test_one_distance_search_per_path_and_graph(self, g6, monkeypatch):
        # Over every t, each distinct path mask gets one BFS in the base
        # graph and one in each subdivided graph it is lifted into. The
        # twelve longest paths of E?^o have four vertex sets, those of K4
        # (C~) one.
        g = parse_graph6(g6)
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        calls = []

        def counted(adj, n, mask):
            calls.append((adj, mask))
            return distance_list(adj, n, mask)

        monkeypatch.setattr(triples, "_distance_list", counted)
        chosen = list(TripleStream(lp))[:30]
        for triple in chosen:
            for tt in (0, 1, 2):
                assert verify_proposition(subs, triple, tt).status == HOLDS
        monkeypatch.undo()
        expected = {(g.adjacency, p.mask) for triple in chosen for p in triple.paths}
        for triple in chosen:
            for tt in (0, 1, 2):
                inst = build_instance(g, triple, tt)
                expected.update((inst.graph.adjacency, p.mask) for p in inst.paths)
        assert sorted(calls) == sorted(expected)

    def test_subdivided_lengths_match_oracle(self, monkeypatch):
        # Every subdivided graph that subdivision_sweep(5, (1, 2)) searches:
        # one per base graph, end set and t, built on the first triple with
        # that end set, which is all the sweep's memo reads.
        searched = []

        def checked(graph, deadline=None):
            length = longest_path_length(graph, deadline=deadline)
            assert length == oracle_longest_path_length(graph)
            searched.append(graph)
            return length

        monkeypatch.setattr(subdivision, "longest_path_length", checked)
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            subs = Subdivisions(g, lp)
            firsts = {}
            for triple in TripleStream(lp):
                firsts.setdefault(frozenset(e for p in triple.paths for e in p.ends), triple)
            for triple in firsts.values():
                for tt in (1, 2):
                    assert verify_proposition(subs, triple, tt).status == HOLDS
        assert len(searched) == 306
        assert max(graph.n for graph in searched) == 40

    def test_budget_error_is_not_stored(self, monkeypatch):
        g, t = star_triple()

        def out_of_time(*args, **kwargs):
            raise BudgetError("deadline passed")

        monkeypatch.setattr(subdivision, "longest_path_length", out_of_time)
        subs = Subdivisions(g)
        v = verify_proposition(subs, t, 1)
        assert v.status == SKIPPED_BUDGET
        assert v.witness == {"budget_s": 120.0}
        assert subs.memo == {}
        monkeypatch.undo()
        assert verify_proposition(subs, t, 1).status == HOLDS
        assert len(subs.memo) == 1


@st.composite
def small_connected_graphs(draw):
    """A random spanning tree on three to seven vertices plus up to n more
    edges: every subdivided graph at t <= 2 stays within the vertex limit."""
    n = draw(st.integers(3, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return from_edge_list(n, sorted(edges))


class TestSubdivisionLaw:
    # One Subdivisions per base graph across all examples, so later draws
    # read memo entries and distance lists that earlier ones filled.
    shared: dict = {}

    @settings(max_examples=150, deadline=None)
    @given(small_connected_graphs(), st.integers(0, 10**6), st.integers(0, 2))
    def test_random_triples_match_oracle(self, g, pick, t):
        lp = enumerate_longest_paths(g)
        stream = TripleStream(lp)
        assume(stream.total > 0)
        triple = stream[pick % stream.total]
        if g not in self.shared:
            self.shared[g] = Subdivisions(g, lp)
        v = verify_proposition(self.shared[g], triple, t)
        length, members, status = oracle_subdivision(g, triple, t)
        assert v.status == status == HOLDS
        assert v.witness["subdivided_length"] == length
        assert v.witness["lifted_longest"] == members


class TestRestrictToTriple:
    def test_star_restricts_to_itself(self):
        g, t = star_triple()
        sub, ids = restrict_to_triple(g, t)
        assert sub == g
        assert ids == (0, 1, 2, 3)

    def test_cycle_union_covers_everything(self):
        # Each of the five longest paths omits a different edge, so any
        # three paths jointly use all five edges.
        g = cycle_graph(5)
        lp = enumerate_longest_paths(g)
        for combo in combinations(lp.paths, 3):
            sub, ids = restrict_to_triple(g, PathTriple(combo))
            assert sub == g
            assert ids == (0, 1, 2, 3, 4)

    def test_partial_union(self):
        g = path_graph(6)
        t = PathTriple.make(g, [0, 1, 2], [1, 2, 3], [2, 3, 4])
        sub, ids = restrict_to_triple(g, t)
        assert ids == (0, 1, 2, 3, 4)
        assert sub == path_graph(5)

    def test_connected_and_edge_bounded_for_longest_triples(self):
        for n in range(3, 6):
            for g in corpus(n):
                lp = enumerate_longest_paths(g)
                if len(lp.paths) < 3:
                    continue
                for combo in combinations(lp.paths, 3):
                    sub, ids = restrict_to_triple(g, PathTriple(combo))
                    assert is_connected(sub)
                    assert sub.m <= 3 * (sub.n - 1)

    def test_mapping_preserves_triple(self):
        g = path_graph(6)
        t = PathTriple.make(g, [1, 2, 3], [2, 3, 4], [3, 4, 5])
        sub, ids = restrict_to_triple(g, t)
        remap = {old: new for new, old in enumerate(ids)}
        for p in t.paths:
            # Each relabelled path is a path of the restricted graph.
            inner = Path.make(sub, [remap[v] for v in p.vertices])
            assert [ids[v] for v in inner.vertices] == list(p.vertices)


class TestSizeBound:
    def test_star_values(self):
        g, t = star_triple()
        v = check_size_bound(g, t, 1)
        assert v.status == HOLDS
        assert v.witness["n0"] == 4
        assert v.witness["subdivided_vertices"] == 13
        assert v.witness["vertex_bound"] == 25

    def test_zero_multiplicity(self):
        g, t = star_triple()
        v = check_size_bound(g, t, 0)
        assert v.status == HOLDS
        assert v.witness["subdivided_vertices"] <= v.witness["n0"] + 6

    def test_cycle_multiplicities(self):
        g = cycle_graph(5)
        lp = enumerate_longest_paths(g)
        t = PathTriple(tuple(lp.paths[:3]))
        for tt in (0, 1, 2):
            assert check_size_bound(g, t, tt).status == HOLDS

    def test_counted_size_matches_the_built_instance(self):
        # The vertex count is computed, not built; the built instance of the
        # restricted triple is the reference, and so are the verdicts. Its
        # size depends only on the restricted graph, the end set and t.
        sizes = {}
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            for triple in TripleStream(lp):
                sub, ids = restrict_to_triple(g, triple)
                remap = {old: new for new, old in enumerate(ids)}
                inner = PathTriple(tuple(
                    Path(tuple(remap[v] for v in p.vertices)) for p in triple.paths))
                ends = frozenset(e for p in inner.paths for e in p.ends)
                for t in (0, 1, 2):
                    key = (sub, ends, t)
                    if key not in sizes:
                        sizes[key] = build_instance(sub, inner, t).graph.n
                    built = sizes[key]
                    v = check_size_bound(g, triple, t)
                    assert v.witness["subdivided_vertices"] == built
                    assert v.witness["n0"] == sub.n
                    assert v.witness["restricted_edges"] == sub.m
                    holds = sub.m <= 3 * (sub.n - 1) and built <= sub.n + 3 * (sub.n + 1) * t + 6
                    assert v.status == (HOLDS if holds else "violated")
