import random
import time
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bipack.graphs import BigraphicSequence, degree_sequence_of
from bipack.sequences import (
    NotBigraphic,
    is_bigraphic,
    is_graphic,
    kundu_check,
    realize_bigraphic,
)
from util_enumeration import bigraphic_multisets, graph_has_k_factor, graphic_multisets

DIFFERENTIAL = settings(max_examples=300, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Reference implementations: the straightforward definitions the fast
# versions replaced, kept here to compare against.
# ---------------------------------------------------------------------------


def havel_hakimi(degrees):
    seq = sorted(degrees, reverse=True)
    if any(d < 0 for d in seq):
        return False
    while seq and seq[0] > 0:
        d = seq.pop(0)
        if d > len(seq):
            return False
        for i in range(d):
            seq[i] -= 1
            if seq[i] < 0:
                return False
        seq.sort(reverse=True)
    return True


def gale_ryser_prefix_loop(a_degrees, b_degrees):
    """O(m*n): recompute sum_j min(b_j, k) for every k."""
    if sum(a_degrees) != sum(b_degrees):
        return False
    a = sorted(a_degrees, reverse=True)
    prefix = 0
    for k in range(1, len(a) + 1):
        prefix += a[k - 1]
        if prefix > sum(min(bj, k) for bj in b_degrees):
            return False
    return True


def realize_sort_per_vertex(s):
    """Rows of the greedy realization, re-sorting all of B per A-vertex."""
    residual = list(s.b_degrees)
    rows = [0] * s.m
    for a in sorted(range(s.m), key=lambda i: -s.a_degrees[i]):
        for b in sorted(range(s.n), key=lambda j: (-residual[j], j))[: s.a_degrees[a]]:
            residual[b] -= 1
            rows[a] |= 1 << b
    return tuple(rows)


def sample_graph_degrees(rng, m, n, mean):
    """Degrees of a random bipartite graph with exponential-ish A-degrees."""
    da, db = [0] * m, [0] * n
    for a in range(m):
        for b in rng.sample(range(n), min(n, int(rng.expovariate(1.0 / mean)))):
            da[a] += 1
            db[b] += 1
    return da, db


@st.composite
def graph_degree_sequences(draw, max_side=12):
    """Degree sequences of random bipartite graphs: always bigraphic."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    a = [row.bit_count() for row in rows]
    b = [sum(row >> j & 1 for row in rows) for j in range(n)]
    return BigraphicSequence(tuple(a), tuple(b))


def near_equal(total, parts):
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


@st.composite
def flat_degree_sequences(draw):
    """Near-regular sequences, shuffled: at most two distinct degrees per
    side, so most residuals tie at every step of the greedy."""
    m = draw(st.integers(1, 14))
    n = draw(st.integers(1, 14))
    total = draw(st.integers(0, m * n))
    rnd = draw(st.randoms(use_true_random=False))
    a, b = near_equal(total, m), near_equal(total, n)
    rnd.shuffle(a)
    rnd.shuffle(b)
    return BigraphicSequence(tuple(a), tuple(b))


class TestIsGraphic:
    def test_triangle(self):
        assert is_graphic([2, 2, 2])

    def test_degree_exceeds_order(self):
        assert not is_graphic([3, 1, 1])

    def test_3311(self):
        # frozen from enumerating all 2^6 graphs on 4 labeled vertices
        assert (3, 3, 1, 1) not in graphic_multisets(4)
        assert not is_graphic([3, 3, 1, 1])

    def test_input_not_mutated(self):
        seq = [3, 2, 2, 1]
        is_graphic(seq)
        assert seq == [3, 2, 2, 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_enumeration(self, n):
        realizable = graphic_multisets(n)
        for degs in product(range(n), repeat=n):
            assert is_graphic(list(degs)) == (tuple(sorted(degs)) in realizable)


class TestAgainstReferences:
    @DIFFERENTIAL
    @given(st.lists(st.integers(-1, 12), max_size=12))
    def test_is_graphic_against_havel_hakimi_and_networkx(self, degrees):
        expected = havel_hakimi(degrees)
        assert is_graphic(degrees) == expected
        assert nx.is_graphical(degrees) == expected

    @DIFFERENTIAL
    @given(graph_degree_sequences())
    def test_is_graphic_on_graph_degrees(self, s):
        # the concatenated sides of a bipartite graph are graphic; nudging
        # one term up makes the sum odd
        degrees = list(s.a_degrees + s.b_degrees)
        assert is_graphic(degrees) and havel_hakimi(degrees)
        if degrees:
            degrees[0] += 1
            assert not is_graphic(degrees) and not havel_hakimi(degrees)

    @DIFFERENTIAL
    @given(
        st.lists(st.integers(0, 14), max_size=10),
        st.lists(st.integers(0, 14), max_size=10),
    )
    def test_is_bigraphic_against_prefix_loop(self, a, b):
        # degrees above the other side's size, empty sides, unequal sums
        expected = gale_ryser_prefix_loop(a, b)
        assert is_bigraphic(BigraphicSequence(a, b)) == expected

    @DIFFERENTIAL
    @given(graph_degree_sequences())
    def test_is_bigraphic_on_graph_degrees(self, s):
        assert is_bigraphic(s) and gale_ryser_prefix_loop(s.a_degrees, s.b_degrees)

    @DIFFERENTIAL
    @given(graph_degree_sequences())
    def test_realize_same_rows_as_sort_per_vertex(self, s):
        g = realize_bigraphic(s)
        assert g.rows == realize_sort_per_vertex(s)
        assert degree_sequence_of(g) == s

    @DIFFERENTIAL
    @given(flat_degree_sequences())
    def test_realize_same_rows_with_tied_residuals(self, s):
        assert gale_ryser_prefix_loop(s.a_degrees, s.b_degrees)
        assert realize_bigraphic(s).rows == realize_sort_per_vertex(s)

    def test_realize_same_rows_at_n_300(self):
        rng = random.Random(300)
        for mean in (2, 10, 60, 200):
            da, db = sample_graph_degrees(rng, 300, 300, mean)
            s = BigraphicSequence(da, db)
            assert realize_bigraphic(s).rows == realize_sort_per_vertex(s)
        regular = BigraphicSequence((150,) * 300, (150,) * 300)
        assert realize_bigraphic(regular).rows == realize_sort_per_vertex(regular)

    def test_scale(self):
        rng = random.Random(2000)
        big = BigraphicSequence(*sample_graph_degrees(rng, 2000, 2000, 10))
        mid = BigraphicSequence(*sample_graph_degrees(rng, 1000, 1000, 10))
        start = time.perf_counter()
        ok = is_bigraphic(big)
        g = realize_bigraphic(mid)
        elapsed = time.perf_counter() - start
        assert ok
        assert degree_sequence_of(g) == mid
        assert elapsed < 0.5, f"Gale-Ryser at 2000 and realization at 1000 took {elapsed:.2f} s"


class TestIsBigraphic:
    def test_perfect_matching(self):
        assert is_bigraphic(BigraphicSequence((1, 1), (1, 1)))

    def test_unequal_sums(self):
        assert not is_bigraphic(BigraphicSequence((2, 2), (2, 1)))

    def test_biclique(self):
        assert is_bigraphic(BigraphicSequence((2, 2), (2, 2)))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 3)])
    def test_agrees_with_enumeration(self, m, n):
        realizable = bigraphic_multisets(m, n)
        for a in product(range(n + 1), repeat=m):
            for b in product(range(m + 1), repeat=n):
                expected = (tuple(sorted(a)), tuple(sorted(b))) in realizable
                assert is_bigraphic(BigraphicSequence(a, b)) == expected

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_invariant_under_side_permutations(self, a, b, rnd):
        a = [min(d, len(b)) for d in a]
        b = [min(d, len(a)) for d in b]
        base = is_bigraphic(BigraphicSequence(tuple(a), tuple(b)))
        pa, pb = list(a), list(b)
        rnd.shuffle(pa)
        rnd.shuffle(pb)
        assert is_bigraphic(BigraphicSequence(tuple(pa), tuple(pb))) == base


class TestRealizeBigraphic:
    def test_forced_biclique(self):
        g = realize_bigraphic(BigraphicSequence((2, 2), (2, 2)))
        assert len(g.edges) == 4

    def test_matching_degrees(self):
        s = BigraphicSequence((1, 1), (1, 1))
        assert degree_sequence_of(realize_bigraphic(s)) == s

    def test_positional_degrees(self):
        s = BigraphicSequence((2, 1), (2, 1))
        g = realize_bigraphic(s)
        assert degree_sequence_of(g) == s
        assert len(g.edges) == 3

    def test_raises_on_non_bigraphic(self):
        with pytest.raises(NotBigraphic):
            realize_bigraphic(BigraphicSequence((2, 2), (2, 1)))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 2)])
    def test_every_bigraphic_sequence_realizes(self, m, n):
        for a in product(range(n + 1), repeat=m):
            for b in product(range(m + 1), repeat=n):
                s = BigraphicSequence(a, b)
                if is_bigraphic(s):
                    assert degree_sequence_of(realize_bigraphic(s)) == s


class TestKunduCheck:
    def test_triangle_no_1_factor(self):
        assert not kundu_check([2, 2, 2], 1)

    def test_c4_has_perfect_matching(self):
        assert kundu_check([2, 2, 2, 2], 1)

    def test_k4_contains_2_factor(self):
        assert kundu_check([3, 3, 3, 3], 2)
        # independent confirmation on the unique realization K4
        k4 = {(u, v) for u in range(4) for v in range(u + 1, 4)}
        assert graph_has_k_factor(4, k4, 2)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            kundu_check([1, 1], -1)

    def test_terms_below_k(self):
        assert not kundu_check([2, 0], 1)
