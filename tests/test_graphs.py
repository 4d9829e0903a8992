"""Graph construction, BFS distances, and graph6 / edge-list interchange."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    corpus_up_to,
    cycle_graph,
    neighbors,
    oracle_pair_distance,
    path_graph,
    star_graph,
    within_seconds,
)
from gallai.graphs import (
    EDGE_LIST_MAX_N,
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    _distance_list,
    format_edge_list,
    from_edge_list,
    is_connected,
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
    to_graph6,
)
from gallai.paths import enumerate_longest_paths
from gallai.subdivision import build_instance
from gallai.triples import TripleStream


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


@st.composite
def any_graphs(draw):
    """Any graph on 1..10 vertices: each vertex pair is drawn as an edge or not."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [p for p, bit in zip(pairs, bits) if bit])


class TestConstruction:
    def test_path_on_three(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert g.n == 1
        assert g.m == 0

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(4, [(0, 1), (0, 1), (1, 0)])
        assert g.edges() == [(0, 1)]

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(0, [])

    def test_equality_and_hash(self):
        a = from_edge_list(3, [(0, 1)])
        b = from_edge_list(3, [(1, 0)])
        c = from_edge_list(3, [(0, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_degrees_and_neighbors(self):
        g = star_graph(3)
        assert g.degree(0) == 3
        assert neighbors(g, 0) == [1, 2, 3]
        assert neighbors(g, 2) == [0]


class TestConstructorChecks:
    """``Graph(n, adj)`` checks its masks, and every factory builds
    through it."""

    def test_valid_masks_accepted(self):
        g = Graph(3, (0b010, 0b101, 0b010))
        assert g == path_graph(3)

    @pytest.mark.parametrize("adj", [(0b100, 0b000), (0b10, 0b01 | 1 << 5), (-1, 0)])
    def test_bit_outside_range_rejected(self, adj):
        with pytest.raises(ValueError, match="outside 0..1"):
            Graph(2, adj)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            Graph(3, (0b010, 0b011, 0b000))

    @pytest.mark.parametrize("adj, edge", [((0b110, 0b001, 0b000), r"\(0, 2\)"),
                                           ((0b010, 0b001, 0b001), r"\(2, 0\)")])
    def test_asymmetric_mask_rejected(self, adj, edge):
        with pytest.raises(ValueError, match=rf"edge {edge} is missing"):
            Graph(3, adj)

    def test_edge_list_self_loop_rejected_by_constructor(self):
        with pytest.raises(ValueError, match="^self-loop at vertex 2$"):
            from_edge_list(3, [(0, 1), (2, 2)])

    def test_pickle_round_trip_runs_the_checks(self):
        g = parse_graph6("KhAAPWU_?_@?")
        assert pickle.loads(pickle.dumps(g)) == g
        assert g.__reduce__()[0] is Graph

    def test_factories_pass_the_checks(self):
        # Every factory's masks pass the constructor's checks: generation,
        # graph6, edge lists, and the extended and subdivided graphs.
        built = [*corpus_up_to(6), parse_graph6("KhAAPWU_?_@?"), cycle_graph(5)]
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) >= 3:
                inst = build_instance(g, next(iter(TripleStream(lp))), 2)
                built += [inst.source, inst.graph]
        for g in built:
            assert Graph(g.n, g.adjacency) == g


class TestGraph6:
    def test_hand_encoded_path(self):
        # bits (0,1)=1,(0,2)=0,(1,2)=1 pack to 101000 = 40, 40+63 = 'g'
        assert to_graph6(path_graph(3)) == "Bg"
        assert parse_graph6("Bg") == path_graph(3)

    def test_hand_encoded_empty(self):
        assert parse_graph6("B?") == from_edge_list(3, [])
        assert to_graph6(from_edge_list(3, [])) == "B?"

    def test_hand_encoded_single_edge(self):
        assert parse_graph6("A_") == from_edge_list(2, [(0, 1)])
        assert to_graph6(from_edge_list(2, [(0, 1)])) == "A_"

    def test_single_vertex_header_only(self):
        assert to_graph6(from_edge_list(1, [])) == "@"
        assert parse_graph6("@") == from_edge_list(1, [])

    def test_optional_prefix_tolerated(self):
        assert parse_graph6(">>graph6<<Bg") == path_graph(3)

    def test_bytes_accepted(self):
        assert parse_graph6(b"Bg\n") == path_graph(3)

    def test_round_trip_generated_corpus(self):
        for g in corpus_up_to(5):
            rec = to_graph6(g)
            assert parse_graph6(rec) == g
            assert to_graph6(parse_graph6(rec)) == rec

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12))
            assert parse_graph6(to_graph6(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(any_graphs())
    def test_round_trip_hypothesis(self, g):
        rec = to_graph6(g)
        assert parse_graph6(rec) == g
        assert to_graph6(parse_graph6(rec)) == rec

    def test_round_trip_near_size_limit(self):
        rng = random.Random(11)
        g = random_graph(rng, 62, p=0.1)
        assert parse_graph6(to_graph6(g)) == g

    def test_oversized_graph_rejected(self):
        g = from_edge_list(63, [(0, 1)])
        with pytest.raises(ValueError):
            to_graph6(g)

    @pytest.mark.parametrize(
        "record",
        [
            "",            # no header
            "~??",         # extended header
            "B",           # missing data bytes
            "Bgg",         # too many data bytes
            "B\x1f",       # data byte below 63
            "?",           # zero vertices
            chr(62) + "g", # header below range
        ],
    )
    def test_malformed_records(self, record):
        with pytest.raises(Graph6Error):
            parse_graph6(record)

    def test_parse_lines_skips_blanks(self):
        graphs = parse_graph6_lines(["Bg", "", "A_", "  "])
        assert [g.n for g in graphs] == [3, 2]

    def test_parse_lines_names_the_bad_line(self):
        # Blank lines still count towards the 1-based line number.
        with pytest.raises(Graph6Error, match=r"^line 3: graph6 record for n=27"):
            parse_graph6_lines(["Bg", "", "Zab"])
        with pytest.raises(Graph6Error, match=r"^in\.g6: line 1: "):
            parse_graph6_lines(["?"], "in.g6")


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle_graph(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path_graph(3)

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_non_integer(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 one\n0 1\n")

    # Malformed lists name the line of the token at fault, and the file
    # when one is given, as graph6 records do.

    def test_non_integer_names_its_line(self):
        with pytest.raises(ValueError, match=r"^in\.txt: line 3: edge-list token 'x' is not"):
            parse_edge_list("3 2\n0 1\n1 x\n", "in.txt")

    def test_endpoint_out_of_range_names_its_line(self):
        with pytest.raises(ValueError, match=r"^in\.txt: line 4: edge \(2, 3\) has an endpoint"):
            parse_edge_list("3 2\n0 1\n\n2 3\n", "in.txt")

    def test_self_loop_names_its_line(self):
        with pytest.raises(ValueError, match=r"^line 2: self-loop at vertex 1$"):
            parse_edge_list("3 2\n1 1\n1 2\n")

    def test_wrong_edge_count_names_the_header(self):
        with pytest.raises(ValueError, match=r"^in\.txt: line 2: .* declares 3 edges but carries 2"):
            parse_edge_list("\n3 3\n0 1\n1 2\n", "in.txt")

    def test_repeated_edge_names_its_line(self):
        # Either orientation repeats the edge; the header's m counts edges.
        with pytest.raises(ValueError, match=r"^in\.txt: line 3: edge \(1, 0\) is listed twice$"):
            parse_edge_list("3 2\n0 1\n1 0\n", "in.txt")
        with pytest.raises(ValueError, match=r"^line 4: edge \(1, 2\) is listed twice$"):
            parse_edge_list("3 3\n1 2\n0 1\n1 2\n")

    def test_tokens_may_span_lines(self):
        # Any whitespace separates tokens, as before lines were tracked.
        assert parse_edge_list("3\t2 0\n1\r\n1 \x0c 2") == path_graph(3)

    @pytest.mark.parametrize("n", [2_000_000, 2_000_000_000])
    def test_huge_header_fails_before_building(self, n):
        # A graph is built in time linear in n: a ten-byte header must not
        # cost seconds (n = 2,000,000 took 2.2 s and 47 MB unbounded).
        expected = (rf"^in\.txt: line 1: edge-list header declares {n} vertices, "
                    rf"more than the {EDGE_LIST_MAX_N} allowed$")
        with pytest.raises(ValueError, match=expected):
            within_seconds(0.1, lambda: parse_edge_list(f"{n} 0", "in.txt"))

    def test_header_limit_is_inclusive(self):
        assert EDGE_LIST_MAX_N >= GRAPH6_MAX_N
        assert parse_edge_list(f"{EDGE_LIST_MAX_N} 0").n == EDGE_LIST_MAX_N
        with pytest.raises(ValueError, match=r"^line 2: edge-list header declares"):
            parse_edge_list(f"\n{EDGE_LIST_MAX_N + 1} 1\n0 1\n")


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(3))

    def test_two_isolated(self):
        assert not is_connected(from_edge_list(2, []))

    def test_star_connected(self):
        assert is_connected(star_graph(3))


def bfs(g: Graph, sources) -> tuple:
    """Distances to the nearest source, from the BFS that ``f_value`` uses."""
    mask = 0
    for s in sources:
        mask |= 1 << s
    return tuple(_distance_list(g.adjacency, g.n, mask))


class TestDistances:
    def test_cycle_single_source(self, c5):
        assert bfs(c5, [0]) == (0, 1, 2, 2, 1)

    def test_cycle_two_sources(self, c5):
        assert bfs(c5, [0, 2]) == (0, 1, 0, 1, 1)

    def test_unreachable_sentinel(self):
        g = from_edge_list(2, [])
        assert bfs(g, [0]) == (0, None)

    def test_zero_exactly_on_sources(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8))
            src = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            dv = bfs(g, src)
            for v in range(g.n):
                assert (dv[v] == 0) == (v in src)

    def test_bfs_layering(self):
        # Adjacent vertices differ by at most one BFS layer.
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 8))
            dv = bfs(g, [0])
            for u, v in g.edges():
                if dv[u] is not None and dv[v] is not None:
                    assert abs(dv[u] - dv[v]) <= 1

    def test_matches_pairwise_oracle(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            s = rng.randrange(g.n)
            dv = bfs(g, [s])
            for v in range(g.n):
                assert dv[v] == oracle_pair_distance(g, s, v)

    def test_set_distance_is_min_over_members(self):
        # d(x, U) agrees with the minimum of single-source distances.
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), p=0.6)
            size = rng.randint(1, g.n)
            srcs = rng.sample(range(g.n), size)
            dv = bfs(g, srcs)
            for v in range(g.n):
                singles = [bfs(g, [s])[v] for s in srcs]
                reachable = [d for d in singles if d is not None]
                expected = min(reachable) if reachable else None
                assert dv[v] == expected

    def test_triangle_inequality_exhaustive(self):
        for g in corpus_up_to(6):
            dmat = [bfs(g, [s]) for s in range(g.n)]
            for u in range(g.n):
                for v in range(g.n):
                    for w in range(g.n):
                        assert dmat[u][w] <= dmat[u][v] + dmat[v][w]

    def test_complete_graph_distances(self):
        dv = bfs(complete_graph(4), [2])
        assert dv == (1, 1, 0, 1)
