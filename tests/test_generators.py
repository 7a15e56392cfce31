import math
import random
import statistics

import pytest

from bipack.graphs import MAX_SIDE
from bipack.generators import (
    ParameterError,
    condition2_parameters,
    gen_condition1_counterexample,
    gen_condition2_counterexample,
    gen_random_bipartite,
    gen_star_forest,
)


def per_pair_edges(n, p, rng):
    """The generator's definition, one rng.random() per (a, b) in row order."""
    if p == 1.0:
        return frozenset((a, b) for a in range(n) for b in range(n))
    return frozenset((a, b) for a in range(n) for b in range(n) if rng.random() < p)


class TestRandomBipartite:
    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    @pytest.mark.parametrize("p", [0, 0.3, 0.75, 1])
    def test_rows_match_the_per_pair_loop(self, n, p):
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            g = gen_random_bipartite(n, p, rng)
            assert g.edges == per_pair_edges(n, p, ref)
            assert rng.getstate() == ref.getstate()  # the same draws were made

    def test_n_above_the_limit_rejected_before_drawing(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="exceed"):
            gen_random_bipartite(MAX_SIDE + 1, 0.5, rng)
        assert rng.getstate() == state
        with pytest.raises(ValueError, match="exceed"):
            gen_star_forest(MAX_SIDE + 1, [1])
        with pytest.raises(ValueError, match="exceed"):
            gen_condition1_counterexample(MAX_SIDE + 2)

    def test_p_one_is_complete(self):
        g = gen_random_bipartite(5, 1.0, random.Random(0))
        assert len(g.edges) == 25

    def test_p_zero_is_empty(self):
        g = gen_random_bipartite(5, 0.0, random.Random(0))
        assert not g.edges

    def test_mean_degree_matches_binomial(self):
        n, p = 64, 0.75
        means = [
            statistics.mean(
                gen_random_bipartite(n, p, random.Random(seed)).a_degrees
            )
            for seed in range(100)
        ]
        sigma = math.sqrt(n * p * (1 - p))
        # mean of 64*100 binomial draws: 3 sigma over the pooled sample
        assert abs(statistics.mean(means) - n * p) < 3 * sigma / math.sqrt(100 * n)

    def test_deterministic_by_seed(self):
        a = gen_random_bipartite(10, 0.4, random.Random(123))
        b = gen_random_bipartite(10, 0.4, random.Random(123))
        assert a == b

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            gen_random_bipartite(4, 1.2, random.Random(0))


class TestStarForest:
    def test_construction(self):
        g = gen_star_forest(6, [3, 2, 1])
        assert g.a_degrees == [3, 2, 1, 0, 0, 0]
        assert g.b_degrees == [1] * 6

    def test_empty(self):
        assert not gen_star_forest(4, []).edges

    def test_hubs_own_consecutive_leaves(self):
        g = gen_star_forest(7, [2, 0, 3, 1])
        assert g.edges == {(0, 0), (0, 1), (2, 2), (2, 3), (2, 4), (3, 5)}

    def test_single_star_covers_t(self):
        g = gen_star_forest(5, [5])
        assert g.a_degrees[0] == 5 and all(d == 1 for d in g.b_degrees)

    def test_overflow_rejected(self):
        with pytest.raises(ParameterError):
            gen_star_forest(4, [3, 2])

    def test_t_degrees_at_most_one(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 30)
            hubs = []
            left = n
            while left > 0 and rng.random() < 0.8:
                d = rng.randint(1, left)
                hubs.append(d)
                left -= d
            g = gen_star_forest(n, hubs[: n])
            assert all(d <= 1 for d in g.b_degrees)


class TestCondition1Counterexample:
    @pytest.mark.parametrize("n", [4, 8, 12, 20])
    def test_degrees(self, n):
        g = gen_condition1_counterexample(n)
        degs = set(g.a_degrees) | set(g.b_degrees)
        assert degs == {n // 2 - 1, n // 2 + 1}
        assert g.min_degree() == n // 2 - 1

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_edges(self, n):
        half = n // 2
        want = {(a, b) for a in range(half + 1) for b in range(half - 1)}
        want |= {(a, b) for a in range(half + 1, n) for b in range(half - 1, n)}
        assert gen_condition1_counterexample(n).edges == want

    def test_n4_shape(self):
        g = gen_condition1_counterexample(4)
        # first 3 A-vertices complete to B0; last A-vertex to B1..B3
        assert g.a_degrees == [1, 1, 1, 3]
        assert g.b_degrees == [3, 1, 1, 1]

    def test_odd_or_small_rejected(self):
        with pytest.raises(ParameterError):
            gen_condition1_counterexample(5)
        with pytest.raises(ParameterError):
            gen_condition1_counterexample(2)


class TestCondition2Counterexample:
    def test_infeasible_small_n(self):
        # 2 hubs of degree 62 cannot fit 64 leaves
        with pytest.raises(ParameterError):
            condition2_parameters(64, 4.0)

    def test_infeasible_typical_parameters(self):
        for n, c in [(4096, 8.0), (1024, 1.0), (1024, 0.5)]:
            with pytest.raises(ParameterError):
                condition2_parameters(n, c)

    def test_feasible_exact_division(self):
        # c = ln(64)/2 gives exactly 2 hubs of degree 32
        c = math.log(64) / 2
        assert condition2_parameters(64, c) == (2, 32)
        host, target = gen_condition2_counterexample(64, c, random.Random(0))
        assert target.a_degrees[:2] == [32, 32]
        assert sum(target.a_degrees) == 64

    def test_requires_dense_host(self):
        c = math.log(64) / 2
        with pytest.raises(ParameterError):
            gen_condition2_counterexample(64, c, random.Random(0), p=0.5)
