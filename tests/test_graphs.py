import pytest
from hypothesis import given, strategies as st

from bipack.graphs import (
    BigraphicSequence,
    BipartiteGraph,
    DimensionMismatch,
    EmbeddingMap,
    PackingWitness,
    complement_in_biclique,
    complete_injection,
    degree_sequence_of,
    format_graph,
    format_sequence,
    parse_graph,
    parse_sequence,
    verify_embedding,
    verify_packing,
)


def biclique(m, n):
    return BipartiteGraph(m, n, {(a, b) for a in range(m) for b in range(n)})


@st.composite
def bipartite_graphs(draw, max_side=5):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    cells = [(a, b) for a in range(m) for b in range(n)]
    edges = draw(st.sets(st.sampled_from(cells)))
    return BipartiteGraph(m, n, frozenset(edges))


class TestBipartiteGraph:
    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, {(2, 0)})

    def test_adjacency(self):
        g = BipartiteGraph(2, 3, {(0, 0), (0, 2), (1, 0)})
        assert g.a_adj[0] == {0, 2}
        assert g.b_adj[0] == {0, 1}
        assert g.has_edge(0, 2) and not g.has_edge(1, 2)


class TestDegreeSequence:
    def test_complete_2_2(self):
        assert degree_sequence_of(biclique(2, 2)) == BigraphicSequence((2, 2), (2, 2))

    def test_empty(self):
        assert degree_sequence_of(BipartiteGraph(2, 3)) == BigraphicSequence(
            (0, 0), (0, 0, 0)
        )

    def test_three_edges(self):
        g = BipartiteGraph(2, 2, {(0, 0), (0, 1), (1, 0)})
        assert degree_sequence_of(g) == BigraphicSequence((2, 1), (2, 1))


class TestComplement:
    def test_of_biclique_is_empty(self):
        assert complement_in_biclique(biclique(2, 2)).edges == frozenset()

    def test_of_empty_is_biclique(self):
        assert complement_in_biclique(BipartiteGraph(2, 2)).edges == biclique(2, 2).edges

    def test_single_edge(self):
        g = BipartiteGraph(1, 2, {(0, 0)})
        assert complement_in_biclique(g).edges == frozenset({(0, 1)})

    @given(bipartite_graphs())
    def test_involution(self, g):
        assert complement_in_biclique(complement_in_biclique(g)) == g

    @given(bipartite_graphs())
    def test_degrees_complement_sidewise(self, g):
        c = complement_in_biclique(g)
        assert all(dc == g.n - d for d, dc in zip(g.a_degrees, c.a_degrees))
        assert all(dc == g.m - d for d, dc in zip(g.b_degrees, c.b_degrees))


class TestVerifyEmbedding:
    def test_identity(self):
        g = BipartiteGraph(2, 2, {(0, 0), (1, 1)})
        emb = EmbeddingMap((0, 1), (0, 1), g.edges)
        assert verify_embedding(g, g, emb)

    def test_matching_into_biclique(self):
        host = biclique(2, 2)
        target = BipartiteGraph(2, 2, {(0, 0), (1, 1)})
        emb = EmbeddingMap((1, 0), (0, 1), {(1, 0), (0, 1)})
        assert verify_embedding(host, target, emb)

    def test_non_injective_is_false(self):
        host = biclique(2, 2)
        target = BipartiteGraph(2, 2, {(0, 0), (1, 1)})
        emb = EmbeddingMap((0, 0), (0, 1), {(0, 0), (0, 1)})
        assert not verify_embedding(host, target, emb)

    def test_dimension_mismatch_raises(self):
        host = biclique(2, 2)
        target = BipartiteGraph(2, 2, {(0, 0)})
        with pytest.raises(DimensionMismatch):
            verify_embedding(host, target, EmbeddingMap((0,), (0, 1), {(0, 0)}))
        with pytest.raises(DimensionMismatch):
            verify_embedding(host, target, EmbeddingMap((0, 5), (0, 1), {(0, 0)}))

    def test_true_implies_edge_count_matches_degree_sum(self):
        host = biclique(3, 3)
        target = BipartiteGraph(3, 3, {(0, 0), (0, 1), (1, 2)})
        emb = EmbeddingMap((0, 1, 2), (0, 1, 2), {(0, 0), (0, 1), (1, 2)})
        assert verify_embedding(host, target, emb)
        assert sum(target.a_degrees) == len(emb.edge_image)


class TestVerifyPacking:
    def test_two_disjoint_matchings(self):
        w = PackingWitness({(0, 0), (1, 1)}, {(0, 1), (1, 0)})
        ones = BigraphicSequence((1, 1), (1, 1))
        assert verify_packing(w, ones, ones)

    def test_shared_edge_fails(self):
        w = PackingWitness({(0, 0), (1, 1)}, {(0, 0), (1, 1)})
        ones = BigraphicSequence((1, 1), (1, 1))
        assert not verify_packing(w, ones, ones)

    def test_degree_mismatch_fails(self):
        w = PackingWitness(biclique(2, 2).edges, {(0, 0)})
        assert not verify_packing(
            w, BigraphicSequence((2, 2), (2, 2)), BigraphicSequence((1, 0), (1, 0))
        )

    def test_unordered_semantics(self):
        # positionally different but multiset-equal degrees still pass
        w = PackingWitness({(0, 0), (0, 1)}, {(1, 0), (1, 1)})
        assert verify_packing(
            w, BigraphicSequence((0, 2), (1, 1)), BigraphicSequence((2, 0), (1, 1))
        )


class TestTextFormats:
    def test_graph_roundtrip(self):
        g = BipartiteGraph(2, 3, {(0, 0), (1, 2)})
        assert parse_graph(format_graph(g)) == g

    def test_sequence_roundtrip(self):
        s = BigraphicSequence((2, 1), (1, 1, 1))
        assert parse_sequence(format_sequence(s)) == s

    def test_graph_format_example(self):
        g = parse_graph("2 2\n0 0\n1 1\n")
        assert g.edges == frozenset({(0, 0), (1, 1)})

    def test_sequence_length_check(self):
        with pytest.raises(ValueError):
            parse_sequence("2 2\n1 1\n1\n")

    def test_graph_duplicate_edge_lines_rejected(self):
        with pytest.raises(ValueError, match="2 duplicate"):
            parse_graph("2 2\n0 0\n1 1\n0 0\n0 0\n")

    def test_sequence_negative_size_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence("-1 3\n1 1\n")


class TestCompleteInjection:
    def test_fills_in_increasing_order(self):
        assert complete_injection({1: 0, 3: 4}, 5, 6) == (1, 0, 2, 4, 3)

    @given(st.data())
    def test_result_is_injective_and_extends_partial(self, data):
        codomain = data.draw(st.integers(0, 8))
        size = data.draw(st.integers(0, codomain))
        keys = data.draw(st.lists(st.integers(0, max(size - 1, 0)), unique=True, max_size=size))
        values = data.draw(st.permutations(range(codomain)))[: len(keys)]
        partial = dict(zip(keys, values))
        full = complete_injection(partial, size, codomain)
        assert len(full) == size and len(set(full)) == size
        assert all(full[k] == v for k, v in partial.items())
        assert all(0 <= v < codomain for v in full)
