import pytest
from hypothesis import given, settings, strategies as st

from bipack.graphs import (
    MAX_SIDE,
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
    set_bits,
    verify_embedding,
    verify_packing,
)

DIFFERENTIAL = settings(max_examples=100, deadline=None, derandomize=True)


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


class TestRows:
    """The rows are the canonical state; every other view must agree with
    the same graph built from edges."""

    @DIFFERENTIAL
    @given(bipartite_graphs(max_side=9))
    def test_edges_rows_and_text_agree(self, g):
        m, n = g.m, g.n
        from_rows = BipartiteGraph.from_rows(m, n, g.rows)
        from_text = parse_graph(format_graph(g))
        for h in (from_rows, from_text):
            assert h == g and hash(h) == hash(g)
            assert h.rows == g.rows
            assert h.edges == g.edges
            assert h.a_adj == g.a_adj and h.b_adj == g.b_adj
            assert h.a_degrees == g.a_degrees and h.b_degrees == g.b_degrees
        # the views, rebuilt here from the edge set alone
        assert g.a_adj == tuple(frozenset(b for a, b in g.edges if a == x) for x in range(m))
        assert g.b_adj == tuple(frozenset(a for a, b in g.edges if b == y) for y in range(n))
        assert g.rows == tuple(sum(1 << b for b in g.a_adj[a]) for a in range(m))
        for a in range(-1, m + 2):
            for b in range(-1, n + 2):
                assert g.has_edge(a, b) == ((a, b) in g.edges)

    @DIFFERENTIAL
    @given(bipartite_graphs(max_side=9), bipartite_graphs(max_side=9))
    def test_equality_follows_the_edge_set(self, g, h):
        assert (g == h) == ((g.m, g.n, g.edges) == (h.m, h.n, h.edges))

    @DIFFERENTIAL
    @given(bipartite_graphs(max_side=9))
    def test_sorted_edge_list_text_round_trips(self, g):
        text = f"{g.m} {g.n}\n" + "".join(f"{a} {b}\n" for a, b in sorted(g.edges))
        assert format_graph(parse_graph(text)) == text

    @DIFFERENTIAL
    @given(st.integers(0, 300).flatmap(lambda w: st.integers(0, (1 << w) - 1)))
    def test_set_bits_matches_bit_tests(self, mask):
        assert set_bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    @DIFFERENTIAL
    @given(
        st.integers(0, 70).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=70)
            )
        )
    )
    def test_b_degrees_count_the_columns(self, shape):
        # up to 70 rows, so the column counts carry through seven bit planes
        n, rows = shape
        g = BipartiteGraph.from_rows(len(rows), n, rows)
        assert g.b_degrees == [len(g.b_adj[b]) for b in range(n)]
        assert g.min_degree() == min(g.a_degrees + [len(s) for s in g.b_adj], default=0)

    def test_b_degrees_of_full_and_empty_columns(self):
        g = BipartiteGraph.from_rows(300, 5, [0b10111] * 300)
        assert g.b_degrees == [300, 300, 300, 0, 300]
        assert "b_adj" not in vars(g)  # counted from the rows, no view built

    def test_set_bits_sparse_and_dense_rows(self):
        sparse = 1 << 700 | 1 << 3
        dense = (1 << 700) - 1 - (1 << 5)
        assert set_bits(sparse) == [3, 700]
        assert set_bits(dense) == [b for b in range(700) if b != 5]
        assert set_bits(0) == []

    def test_from_rows_checks_shape(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_rows(2, 2, (1,))
        with pytest.raises(ValueError):
            BipartiteGraph.from_rows(1, 2, (4,))
        with pytest.raises(ValueError):
            BipartiteGraph.from_rows(1, 2, (-1,))

    def test_immutable(self):
        g = BipartiteGraph(2, 2, {(0, 1)})
        with pytest.raises(AttributeError):
            g.rows = (0, 0)

    def test_sizes_above_the_limit_rejected_before_allocating(self):
        for m, n in ((MAX_SIDE + 1, 0), (0, MAX_SIDE + 1), (99999999999, 99999999999)):
            with pytest.raises(ValueError, match="exceed"):
                BipartiteGraph(m, n)
            with pytest.raises(ValueError, match="exceed"):
                BipartiteGraph.from_rows(m, n, ())
        assert BipartiteGraph(MAX_SIDE, 1, {(MAX_SIDE - 1, 0)}).a_degrees[-1] == 1


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

    @DIFFERENTIAL
    @given(bipartite_graphs(max_side=6), st.data())
    def test_image_edge_missing_from_host_is_false(self, host, data):
        missing = [(a, b) for a in range(host.m) for b in range(host.n) if not host.has_edge(a, b)]
        if not missing:
            return
        a, b = data.draw(st.sampled_from(missing))
        target = BipartiteGraph(1, 1, {(0, 0)})
        # the map is injective and the image has the right size and shape
        assert not verify_embedding(host, target, EmbeddingMap((a,), (b,), {(a, b)}))
        assert verify_embedding(
            BipartiteGraph(host.m, host.n, host.edges | {(a, b)}),
            target,
            EmbeddingMap((a,), (b,), {(a, b)}),
        )

    def test_image_edge_outside_the_host_is_false(self):
        host = biclique(2, 2)
        target = BipartiteGraph(2, 2, {(0, 0)})
        assert not verify_embedding(host, target, EmbeddingMap((0, 1), (0, 1), {(0, 7)}))

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

    def test_graph_header_above_the_limit_rejected(self):
        # rejected from the header alone, before any per-vertex allocation
        for text in ("99999999999 0", f"0 {MAX_SIDE + 1}", "3 99999999999\n0 0\n"):
            with pytest.raises(ValueError, match="exceed"):
                parse_graph(text)

    def test_graph_edge_out_of_range_rejected(self):
        for text in ("2 2\n0 2\n", "2 2\n2 0\n", "2 2\n0 -1\n", "2 2\n-1 0\n"):
            with pytest.raises(ValueError, match="out of range"):
                parse_graph(text)

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
