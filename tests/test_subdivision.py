"""Pendant extension, edge subdivision, path lifting, and the exact
verification of the scaling behaviour."""

from functools import cached_property
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    corpus,
    corpus_up_to,
    cycle_graph,
    enumerate_all_simple_paths,
    neighbors,
    oracle_isomorphic,
    oracle_longest_path_length,
    path_graph,
    random_graphs,
    restrict_to_triple,
    spider_graph,
    star_graph,
    theta_graph,
)
import gallai.subdivision as subdivision
import gallai.triples as triples
from gallai.claims import HOLDS, SKIPPED_BUDGET, SKIPPED_TRUNCATED, VIOLATED, ClaimVerdict
from gallai.graphs import _distance_list as distance_list
from gallai.graphs import from_edge_list, is_connected, parse_graph6
from gallai.paths import (
    BudgetError,
    LongestPathTable,
    Path,
    enumerate_longest_paths,
    longest_path_length,
)
from gallai.subdivision import (
    Subdivisions,
    attach_pendants,
    build_instance,
    check_size_bound,
    subdivide,
    subdivided_length,
    union_sizes,
    verify_proposition,
)
from gallai.scan import gated_table
from gallai.triples import PathTriple, TripleStream, f_value


def star_triple():
    g = star_graph(3)
    lp = enumerate_longest_paths(g)
    return g, PathTriple(tuple(lp.paths))


def subdivisions(g):
    # The checks of a base graph over the table every command starts it with.
    return Subdivisions(g, gated_table(g)[1])


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
        assert [neighbors(ext.graph, v) for v in range(g.n, ext.graph.n)] == [[1], [2], [3]]

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
        assert neighbors(inst.graph, 0) == [4, 6, 8]
        assert neighbors(inst.graph, 9) == [3, 8]

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
            v = verify_proposition(subdivisions(g), t, tt)
            assert v.status == HOLDS, v.witness
            assert v.witness["subdivided_f"] == 0
            assert v.witness["original_witness"]

    def test_star_lengths(self):
        g, t = star_triple()
        subs = subdivisions(g)
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

    def test_no_table_walks_no_path(self, monkeypatch):
        # The gate reads only the table's length and truncation flag, so the
        # table the front end builds is never walked: K8 has 20,160 paths.
        def refuse(table):
            raise AssertionError("walked the longest paths")

        walked = cached_property(refuse)
        walked.__set_name__(LongestPathTable, "paths")
        monkeypatch.setattr(LongestPathTable, "paths", walked)
        g = complete_graph(8)
        subs = subdivisions(g)
        assert (subs.longest_paths.length, subs.longest_paths.truncated) == (7, False)
        t = PathTriple.make(
            g, range(8), [0, 2, 1, *range(3, 8)], [0, 1, 3, 2, *range(4, 8)])
        v = verify_proposition(subs, t, 0)
        assert v.status == HOLDS
        assert v.witness["subdivided_length"] == 9

    def test_non_longest_triple_rejected(self):
        g = star_graph(3)
        t = PathTriple((Path((0, 1)), Path((0, 2)), Path((0, 3))))
        with pytest.raises(ValueError):
            verify_proposition(subdivisions(g), t, 1)

    def test_budget_skip(self, monkeypatch):
        # Seven vertices and six edges after the pendants; t = 9 gives
        # 7 + 9 * 6 = 61 vertices, one over the limit.
        g, t = star_triple()
        subs = subdivisions(g)
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

    def test_truncated_table_skips(self):
        # The star's three longest paths are over a cap of one: the table
        # knows only its length, so no triple is decided and nothing is
        # stored, not even the base graph's distances.
        g, t = star_triple()
        table = LongestPathTable(g, 1)
        assert table.truncated
        subs = Subdivisions(g, table)
        v = verify_proposition(subs, t, 1)
        assert v.status == SKIPPED_TRUNCATED
        assert subs.memo == {} and subs.analyze.distances == {}

    def test_adjacency_is_checked(self):
        # Reversing a stored chain keeps the lifted paths' lengths and vertex
        # sets, so only the edge-by-edge check can tell they are no longer
        # paths of the subdivided graph. The entry's lifts are dropped with
        # it, so that every path is lifted through the reversed chain.
        g, t = star_triple()
        subs = subdivisions(g)
        assert verify_proposition(subs, t, 2).status == HOLDS
        (_, inst, _, lifts, _), = subs.memo.values()
        inst.chains[(0, 1)] = inst.chains[(0, 1)][::-1]
        lifts.clear()
        v = verify_proposition(subs, t, 2)
        assert v.status == VIOLATED
        assert False in v.witness["lifted_longest"]
        assert v.witness["subdivided_f"] == v.witness["expected_f"]


def oracle_subdivision(g, triple, t):
    """The per-instance check without a memo: build the instance, look the
    lifted paths up among the subdivided graph's listed longest paths and
    take f from ``f_value`` on it. Returns the witness fields it decides,
    named as in a verdict, and the status."""
    base_f, _ = f_value(g, triple)
    inst = build_instance(g, triple, t)
    lp_sub = enumerate_longest_paths(inst.graph)
    assert not lp_sub.truncated
    sub_f, witnesses = f_value(inst.graph, PathTriple(inst.paths))
    fields = {
        "subdivided_length": lp_sub.length,
        "lifted_longest": [p in lp_sub.paths for p in inst.paths],
        "subdivided_f": sub_f,
        "expected_f": (t + 1) * base_f,
        "original_witness": min(witnesses) < g.n,
    }
    holds = (all(fields["lifted_longest"]) and sub_f == fields["expected_f"]
             and fields["original_witness"])
    return fields, HOLDS if holds else VIOLATED


def oracle_fields(verdict, fields):
    return {name: verdict.witness[name] for name in fields}


class TestSubdividedReuse:
    def test_same_verdicts_with_and_without_reuse(self):
        checked = 0
        for g in corpus_up_to(4):
            lp = enumerate_longest_paths(g)
            subs = Subdivisions(g, lp)
            for triple in TripleStream(lp):
                for tt in (0, 1, 2):
                    v = verify_proposition(subs, triple, tt)
                    fields, status = oracle_subdivision(g, triple, tt)
                    assert oracle_fields(v, fields) == fields
                    assert v.status == status
                    checked += 1
            # One entry per distinct (end set, t).
            end_sets = {
                frozenset(e for p in triple.paths for e in p.ends)
                for triple in TripleStream(lp)
            }
            assert len(subs.memo) == 3 * len(end_sets)
        assert checked > 0

    def test_sums_of_paths_that_are_not_longest(self):
        # Three longest paths of a graph this small always share a vertex, so
        # every valid instance has f = 0 at a common vertex. Shorter paths,
        # passed with a stand-in table of their length, have positive sums
        # and lifts that are not longest: every field is still the oracle's.
        positive = 0
        for g in [*corpus_up_to(5), path_graph(7), spider_graph(3, 2)]:
            by_length = {}
            for p in enumerate_all_simple_paths(g):
                by_length.setdefault(p.length, []).append(p)
            for k, paths in by_length.items():
                if k == 0:
                    continue
                subs = Subdivisions(g, SimpleNamespace(length=k, truncated=False))
                for triple in list(combinations(paths, 3))[::7][:4]:
                    triple = PathTriple(triple)
                    for t in (0, 1, 2):
                        v = verify_proposition(subs, triple, t)
                        fields, status = oracle_subdivision(g, triple, t)
                        assert oracle_fields(v, fields) == fields and v.status == status
                        positive += fields["expected_f"] > 0
        assert positive > 100

    @pytest.mark.parametrize("g6, t", [("Cs", 8), ("Dhc", 5), ("Bw", 9)])
    def test_packed_distances_near_the_vertex_limit(self, g6, t):
        # The star, C5 and the triangle at a t whose graphs have 54 to 60
        # vertices: each lift keeps its distances one byte per vertex, and
        # the f and witness read off their sum are the oracle's.
        g = parse_graph6(g6)
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        for triple in list(TripleStream(lp))[:3]:
            v = verify_proposition(subs, triple, t)
            fields, status = oracle_subdivision(g, triple, t)
            assert oracle_fields(v, fields) == fields and v.status == status == HOLDS
        for _, inst, _, lifts, _ in subs.memo.values():
            n, adj = inst.graph.n, inst.graph.adjacency
            assert 54 <= n <= 60
            for q, _, packed in lifts.values():
                assert list(packed.to_bytes(n, "little")) == distance_list(adj, n, q.mask)

    def test_entry_is_read_instead_of_enumerating(self, monkeypatch):
        g, t = star_triple()
        subs = subdivisions(g)
        first = verify_proposition(subs, t, 1)
        assert len(subs.memo) == 1

        def refuse(*args, **kwargs):
            raise AssertionError("searched a graph already in the memo")

        monkeypatch.setattr(subdivision, "subdivided_length", refuse)
        monkeypatch.setattr(subdivision, "enumerate_longest_paths", refuse)
        assert verify_proposition(subs, t, 1) == first

    @pytest.mark.parametrize("g6", ["E?^o", "C~"])
    def test_one_distance_search_per_path_and_graph(self, g6, monkeypatch):
        # Over every t, each distinct path mask gets one BFS in the base
        # graph (through the analyser's f_value) and one in each subdivided
        # graph it is lifted into (kept with its lift). The twelve longest
        # paths of E?^o have four vertex sets, those of K4 (C~) one.
        g = parse_graph6(g6)
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        calls = []

        def counted(adj, n, mask):
            calls.append((adj, mask))
            return distance_list(adj, n, mask)

        monkeypatch.setattr(triples, "_distance_list", counted)
        monkeypatch.setattr(subdivision, "_distance_list", counted)
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

    @pytest.mark.parametrize("g6", ["E?^o", "C~"])
    def test_one_base_value_per_mask_triple(self, g6, monkeypatch):
        # The base f depends only on the three path masks, so the analyser
        # sums it once per mask triple over every t: K4's twelve longest
        # paths share one vertex set, so all its triples share one base value.
        g = parse_graph6(g6)
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        bases = []
        real_f_value = triples.f_value

        def counted(graph, triple, distances=None):
            if graph is g:
                bases.append(tuple(p.mask for p in triple.paths))
            return real_f_value(graph, triple, distances)

        monkeypatch.setattr(triples, "f_value", counted)
        monkeypatch.setattr(subdivision, "f_value", counted)
        for triple in TripleStream(lp):
            for tt in (0, 1, 2):
                v = verify_proposition(subs, triple, tt)
                assert v.witness["base_f"] == f_value(g, triple)[0]
        monkeypatch.undo()
        expected = {tuple(p.mask for p in triple.paths) for triple in TripleStream(lp)}
        assert sorted(bases) == sorted(expected)
        assert len(expected) < TripleStream(lp).total

    def test_shared_verdicts_equal_fresh_ones(self):
        # One Subdivisions per graph, its lifts and holding verdicts shared
        # by every triple, against one per instance, which shares nothing.
        # Every triple of the n <= 5 corpus, except on the three graphs with
        # over 2,000 (K5 has 34,220), where every 97th is taken: one per
        # instance costs about half a millisecond.
        checked = 0
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            stream = TripleStream(lp)
            stride = 97 if stream.total > 2000 else 1
            shared = Subdivisions(g, lp)
            for index in range(0, stream.total, stride):
                triple = stream[index]
                for tt in (0, 1, 2):
                    v = verify_proposition(shared, triple, tt)
                    assert v == verify_proposition(Subdivisions(g, lp), triple, tt)
                    checked += 1
        # 1,683 triples taken whole and 353 + 74 + 21 sampled, at three t.
        assert checked == 3 * 2131

    @pytest.mark.parametrize("g6", ["E?^o", "C~"])
    def test_once_per_input(self, g6, monkeypatch):
        # Every triple of the twelve longest paths, at each t: each path is
        # lifted once into each subdivided graph it meets.
        g = parse_graph6(g6)
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        lifts = []
        real_lift = subdivision._lift

        def lift(path, chains):
            lifts.append(path)
            return real_lift(path, chains)

        monkeypatch.setattr(subdivision, "_lift", lift)
        expected_lifts = set()
        for triple in TripleStream(lp):
            ends = frozenset(e for p in triple.paths for e in p.ends)
            for tt in (0, 1, 2):
                assert verify_proposition(subs, triple, tt).status == HOLDS
                expected_lifts.update((p.vertices, ends, tt) for p in triple.paths)
        monkeypatch.undo()
        assert len(lifts) == len(expected_lifts)

    def test_violations_are_never_shared(self, monkeypatch):
        # A length one above the true one makes every lifted path fall
        # short: each instance is violated, and each keeps its own replay
        # witness.
        def too_long(graph, t, deadline=None):
            return subdivided_length(graph, t, deadline=deadline) + 1

        monkeypatch.setattr(subdivision, "subdivided_length", too_long)
        g = parse_graph6("E?^o")
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        verdicts = []
        for triple in TripleStream(lp):
            for tt in (1, 2):
                v = verify_proposition(subs, triple, tt)
                assert v.status == VIOLATED
                assert v.witness["paths"] == [list(p.vertices) for p in triple.paths]
                assert v.witness["lifted_longest"] == [False] * 3
                verdicts.append(v)
        assert len({id(v) for v in verdicts}) == len(verdicts) == 2 * 220
        assert len({id(v.witness) for v in verdicts}) == len(verdicts)
        assert subs.holding == {}

    def test_holding_verdicts_are_shared(self):
        # K4's Hamiltonian paths all cover the graph: f is 0 at every t,
        # so one verdict object serves every triple at that t.
        g = parse_graph6("C~")
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        for tt in (0, 1, 2):
            verdicts = [verify_proposition(subs, triple, tt) for triple in TripleStream(lp)]
            assert all(v is verdicts[0] for v in verdicts)
        assert len(subs.holding) == 3

    def test_subdivided_lengths_match_oracle(self, monkeypatch):
        # Every subdivided graph that subdivision_sweep(5, (1, 2)) searches:
        # one per base graph, end set and t, built on the first triple with
        # that end set, which is all the sweep's memo reads.
        searched = []

        def checked(graph, t, deadline=None):
            length = subdivided_length(graph, t, deadline=deadline)
            built = subdivide(graph, t).graph
            assert length == longest_path_length(built) == oracle_longest_path_length(built)
            searched.append(built)
            return length

        monkeypatch.setattr(subdivision, "subdivided_length", checked)
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

        monkeypatch.setattr(subdivision, "subdivided_length", out_of_time)
        subs = subdivisions(g)
        v = verify_proposition(subs, t, 1)
        assert v.status == SKIPPED_BUDGET
        assert v.witness == {"budget_s": 120.0}
        assert subs.memo == {}
        monkeypatch.undo()
        assert verify_proposition(subs, t, 1).status == HOLDS
        assert len(subs.memo) == 1

    def test_expired_deadline_is_not_stored(self, monkeypatch):
        # The real search, with a budget that has run out before it starts.
        g, t = star_triple()
        monkeypatch.setattr(subdivision, "DEFAULT_VERIFY_BUDGET_S", -1)
        subs = subdivisions(g)
        v = verify_proposition(subs, t, 1)
        assert v.status == SKIPPED_BUDGET
        assert v.witness == {"budget_s": -1}
        assert subs.memo == {}


@st.composite
def small_connected_graphs(draw, min_n=3):
    """A random spanning tree on ``min_n`` to seven vertices plus up to n
    more edges: every subdivided graph at t <= 2 stays within the vertex
    limit."""
    n = draw(st.integers(min_n, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return from_edge_list(n, sorted(edges))


@st.composite
def graphs_with_pendants(draw):
    """A small random connected graph with up to three leaves hung on it,
    as ``attach_pendants`` hangs them on path ends."""
    g = draw(small_connected_graphs())
    leaves = draw(st.lists(st.integers(0, g.n - 1), max_size=3))
    edges = g.edges() + [(v, g.n + i) for i, v in enumerate(leaves)]
    return from_edge_list(g.n + len(leaves), edges)


class TestSubdividedLength:
    """The length read off the unsubdivided graph equals a search of the
    subdivided one."""

    def test_matches_the_search_on_the_corpus(self):
        for g in corpus_up_to(6):
            for t in range(4):
                assert subdivided_length(g, t) == longest_path_length(subdivide(g, t).graph)

    def test_zero_multiplicity_is_the_longest_path_length(self):
        for g in corpus_up_to(7):
            assert subdivided_length(g, 0) == longest_path_length(g)

    def test_single_vertex(self):
        # k = 0 with no edge: nothing to hang a partial chain on.
        for t in range(4):
            assert subdivided_length(from_edge_list(1, []), t) == 0

    def test_lone_edge_and_star(self):
        # Leaves have no edge off a path (e = 0), and a single vertex
        # reaches into at most two chains, 2t edges, fewer than the two
        # chains it lies between taken whole.
        for t in range(4):
            assert subdivided_length(path_graph(2), t) == t + 1
            assert subdivided_length(star_graph(3), t) == 2 * (t + 1)

    def test_ends_sharing_their_only_edge_off_the_path(self):
        # On a cycle both ends of a Hamiltonian path have only the closing
        # edge left, and share its t interior vertices: e = 1, not 2.
        for n in (3, 4, 5):
            for t in range(4):
                assert subdivided_length(cycle_graph(n), t) == n * (t + 1) - 1

    def test_matches_the_search_on_the_gallai_free_graph(self):
        # Twelve vertices and up to six pendants: longer paths, with more
        # branches, than the corpus reaches.
        g = parse_graph6("KhAAPWU_?_@?")
        stream = TripleStream(enumerate_longest_paths(g))
        for index in range(0, stream.total, 1500):
            ext = attach_pendants(g, stream[index]).graph
            for t in (1, 2):
                built = subdivide(ext, t).graph
                assert subdivided_length(ext, t) == longest_path_length(built) \
                    == oracle_longest_path_length(built)

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_pendants(), st.integers(0, 3))
    def test_matches_the_search_on_random_graphs(self, g, t):
        # Both sides run the one search of ``paths``; the oracle shares no code.
        built = subdivide(g, t).graph
        assert subdivided_length(g, t) == longest_path_length(built) \
            == oracle_longest_path_length(built)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=8))
    @example(from_edge_list(1, []))
    @example(from_edge_list(8, []))
    @example(from_edge_list(8, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)]))
    def test_zero_multiplicity_on_random_graphs(self, g):
        # Disconnected, edgeless and one-vertex graphs included.
        assert subdivided_length(g, 0) == longest_path_length(g) == oracle_longest_path_length(g)

    def test_complete_graphs(self):
        # K4 and K5 reach the stop value (t + 1)(n - 1) + 2t, every end
        # with two edges off a Hamiltonian path; K3 ends short of it.
        expected = {(3, 1): 5, (3, 2): 8, (4, 1): 8, (4, 2): 13, (5, 1): 10, (5, 2): 16}
        for (n, t), length in expected.items():
            g = complete_graph(n)
            assert subdivided_length(g, t) == oracle_longest_path_length(subdivide(g, t).graph) \
                == length

    def test_no_stop_before_both_ends_score(self):
        # The 6-cycle 0-1-3-4-2 with 5 on the chord 3-4. Every Hamiltonian
        # path from vertex 0, the first start, ends next to it at a vertex
        # of degree 2, so the two share their only edge off the path
        # (e = 1). The longest subdivided path comes from 2-0-1-3-4-5,
        # whose ends have different edges off it (e = 2): the search must
        # not stop below (t + 1)(n - 1) + 2t.
        g = from_edge_list(6, [(0, 1), (0, 2), (2, 4), (1, 3), (3, 4), (4, 5), (3, 5)])
        for t in (1, 2):
            assert subdivided_length(g, t) == oracle_longest_path_length(subdivide(g, t).graph) \
                == 5 * (t + 1) + 2 * t

    def test_chains_are_a_loop_and_branches_recurse(self):
        # A 1,200-vertex path costs the search no stack at t = 1 either;
        # a comb, which branches at every spine vertex, goes past the
        # recursion limit.
        assert subdivided_length(path_graph(1200), 1) == 2398
        spine = 1200
        comb = from_edge_list(2 * spine, [(i, i + 1) for i in range(spine - 1)]
                              + [(i, spine + i) for i in range(spine)])
        with pytest.raises(ValueError, match="recursion limit"):
            subdivided_length(comb, 1)

    def test_expired_deadline_raises(self):
        with pytest.raises(BudgetError):
            subdivided_length(star_graph(3), 2, deadline=0.0)


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
        fields, status = oracle_subdivision(g, triple, t)
        assert v.status == status == HOLDS
        assert oracle_fields(v, fields) == fields

    @settings(max_examples=25, deadline=None)
    @given(small_connected_graphs(min_n=4))
    def test_subdivided_f_matches_a_fresh_instance(self, g):
        # The f read off the per-path distance lists of a shared entry,
        # against f_value on an instance built for the triple alone, over
        # the first 30 triples of a graph at each t.
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        for triple in TripleStream(lp, 30):
            for t in (0, 1, 2):
                v = verify_proposition(subs, triple, t)
                fields, _ = oracle_subdivision(g, triple, t)
                del fields["subdivided_length"], fields["lifted_longest"]
                assert oracle_fields(v, fields) == fields


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

    def test_verdicts_share_holding_bounds(self, monkeypatch):
        # Subdivisions.verdicts counts the union from masks kept per path and
        # keeps one holds verdict per (t, sizes): each equals a fresh
        # check_size_bound.
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            subs = Subdivisions(g, lp)
            shared = {}
            for triple in list(TripleStream(lp))[:200]:
                for t, (_, bound) in zip((0, 1, 2), subs.verdicts(triple, (0, 1, 2))):
                    assert bound == check_size_bound(g, triple, t)
                    assert shared.setdefault((t, union_sizes(triple)), bound) is bound
        # A violated bound keeps its own triple's paths and is never stored.
        g = parse_graph6("C~")
        lp = enumerate_longest_paths(g)
        subs = Subdivisions(g, lp)
        real = subdivision.check_size_bound

        def violated(graph, triple, t, sizes=None):
            v = real(graph, triple, t, sizes)
            return ClaimVerdict("size_bound", VIOLATED, dict(v.witness, paths=[
                list(p.vertices) for p in triple.paths]))

        monkeypatch.setattr(subdivision, "check_size_bound", violated)
        bounds = [bound for triple in TripleStream(lp)
                  for _, bound in subs.verdicts(triple, (1,))]
        assert len({id(b) for b in bounds}) == len(bounds) == 220
        assert not any(key[0] == "size_bound" for key in subs.holding)

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
