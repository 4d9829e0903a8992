"""Cross-checks against networkx as an independent reference: its graph6
codec for bit-exactness, its graph atlas for generator completeness, and
its articulation points for the cut vertices the length search skips.

These oracles share no code with the package; they exist to catch
systematic encoding or enumeration mistakes that self-consistent tests
could miss.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings

nx = pytest.importorskip("networkx")

from conftest import corpus, corpus_up_to, random_graphs
from gallai.graphs import from_edge_list, parse_graph6, to_graph6
from gallai.paths import _cut_vertices


def to_nx(graph) -> "nx.Graph":
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from(graph.edges())
    return out


class TestGraph6AgainstReference:
    def test_encoding_matches_reference_on_corpus(self):
        for g in corpus_up_to(6):
            mine = to_graph6(g)
            ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert mine == ref

    def test_encoding_matches_reference_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(1, 30)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            g = from_edge_list(n, edges)
            mine = to_graph6(g)
            ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert mine == ref

    def test_decoding_matches_reference(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(1, 20)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            record = nx.to_graph6_bytes(
                to_nx(from_edge_list(n, edges)), header=False
            ).decode().strip()
            decoded = parse_graph6(record)
            assert decoded.n == n
            assert decoded.edges() == sorted(
                (min(u, v), max(u, v)) for u, v in edges
            )


@pytest.fixture(scope="module")
def atlas_connected():
    from networkx.generators.atlas import graph_atlas_g

    by_n: dict[int, list] = {}
    for g in graph_atlas_g()[1:]:
        if g.number_of_nodes() >= 1 and nx.is_connected(g):
            by_n.setdefault(g.number_of_nodes(), []).append(g)
    return by_n


class TestGeneratorAgainstAtlas:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_atlas(self, atlas_connected, n):
        assert len(corpus(n)) == len(atlas_connected.get(n, []))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_invariant_multisets_match_atlas(self, atlas_connected, n):
        # Degree sequence plus triangle count is a cheap, fairly sharp
        # invariant pair: the multisets over a complete catalogue and over
        # the generated stream must agree exactly.
        def signature_nx(g):
            degs = tuple(sorted(d for _, d in g.degree()))
            return degs, sum(nx.triangles(g).values()) // 3

        def signature_mine(g):
            return signature_nx(to_nx(g))

        ours = Counter(signature_mine(g) for g in corpus(n))
        theirs = Counter(signature_nx(g) for g in atlas_connected[n])
        assert ours == theirs


def reference_cut_vertices(graph) -> int:
    return sum(1 << v for v in nx.articulation_points(to_nx(graph)))


class TestCutVerticesAgainstReference:
    def test_corpus(self):
        for g in corpus_up_to(7):
            assert _cut_vertices(g.adjacency) == reference_cut_vertices(g)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, g):
        # Disconnected graphs included: each component has its own root.
        assert _cut_vertices(g.adjacency) == reference_cut_vertices(g)

    def test_larger_sparse_graphs(self):
        # Trees with a few chords, where most vertices are cut vertices
        # and the explicit stack grows deep.
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(20, 80)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n // 4))]
            g = from_edge_list(n, edges)
            assert _cut_vertices(g.adjacency) == reference_cut_vertices(g)
