import math
import random

import pytest

from bipack.embedder import (
    BadTarget,
    CapViolation,
    EmbedConfig,
    EmbedFailure,
    GreedyStuck,
    InsufficientB,
    assign_blocks_and_pairs,
    azuma_bound,
    band_index,
    blocks_from_permutation,
    embed,
    embed_pair,
    empirical_bad_frequency,
    greedy_embed_small,
    images_from_blocks,
    is_small_class,
    partition_degree_classes,
)
from bipack.flow import Infeasible, fixed_order_embed
from bipack.generators import (
    gen_condition1_counterexample,
    gen_random_bipartite,
    gen_star_forest,
)
from bipack.graphs import BigraphicSequence, BipartiteGraph, verify_embedding


def biclique(n):
    return BipartiteGraph(n, n, {(a, b) for a in range(n) for b in range(n)})


def relaxed(eps=0.4, cap=8.0, **kw):
    return EmbedConfig(eps=eps, mode="relaxed", cap_override=cap, **kw)


def band_index_by_iteration(degree, cap, delta):
    """The band index's defining loop: the smallest i >= 1 with
    cap/(1+delta)^i < degree, or the first i where (1+delta)^i overflows."""
    i = 1
    try:
        while degree <= cap / (1 + delta) ** i:
            i += 1
    except OverflowError:
        pass
    return i


class TestBandIndex:
    @pytest.mark.parametrize("delta", [0.001, 0.01, 0.049, 0.05, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("cap", [1.0, 2.0, 3.0, 8.0, 10.0, 1000.0, 1e6])
    def test_matches_the_iteration_at_band_boundaries(self, cap, delta):
        # degrees exactly on each boundary cap/(1+delta)^j and one float step
        # either side, plus the integers nearest to it
        j = 0
        while cap / (1 + delta) ** j >= 0.5 and j < 3000:
            edge = cap / (1 + delta) ** j
            for degree in (
                edge,
                math.nextafter(edge, 0),
                math.nextafter(edge, math.inf),
                math.floor(edge),
                math.ceil(edge),
            ):
                if degree > 0:
                    assert band_index(degree, cap, delta) == band_index_by_iteration(
                        degree, cap, delta
                    ), (degree, cap, delta)
            j += {0.001: 97, 0.01: 11}.get(delta, 1)  # every band where they are few

    def test_matches_the_iteration_at_huge_caps(self):
        for cap in (1e300, 1e308, 1.79e308):
            for delta in (0.01, 0.05):
                for degree in (1, 2, 3, 1000):
                    assert band_index(degree, cap, delta) == band_index_by_iteration(
                        degree, cap, delta
                    )

    def test_degree_above_cap_is_band_one(self):
        assert band_index(9, 8.0, 0.05) == 1

    def test_delta_too_small_rejected(self):
        with pytest.raises(ValueError):
            band_index(1, 8.0, 1e-30)

    def test_frozen_examples(self):
        # solved by hand from cap/(1+d)^i < deg <= cap/(1+d)^(i-1), cap=8, d=0.05
        assert band_index(8, 8.0, 0.05) == 1
        assert band_index(4, 8.0, 0.05) == 15
        assert band_index(1, 8.0, 0.05) == 43

    def test_band_inequalities(self):
        cap, delta = 10.0, 0.07
        for deg in range(1, 11):
            i = band_index(deg, cap, delta)
            assert cap / (1 + delta) ** i < deg <= cap / (1 + delta) ** (i - 1)

    def test_cap_near_float_max(self):
        # (1+delta)^i passes the float range before cap/(1+delta)^i drops below 1
        cap, delta = 1.79e308, 0.05
        i = band_index(1, cap, delta)
        assert 1 <= cap / (1 + delta) ** (i - 1)
        with pytest.raises(OverflowError):
            (1 + delta) ** i


class TestPartition:
    def test_mixed_degrees(self):
        target = gen_star_forest(32, [8, 8, 4, 1])
        plan = partition_degree_classes(target, relaxed(eps=0.49, cap=8.0))
        # delta = 0.049; vertices of equal degree share a band
        nonempty = {i: c for i, c in enumerate(plan.classes) if c}
        assert nonempty[0] == tuple(range(4, 32))
        assert plan.classes[1] == (0, 1)
        by_vertex = {v: i for i, c in zip(plan.bands, plan.classes) for v in c}
        for v, d in [(2, 4), (3, 1)]:
            i = by_vertex[v]
            assert plan.cap / (1 + plan.delta) ** i < d
            assert d <= plan.cap / (1 + plan.delta) ** (i - 1)

    def test_uniform_degrees_single_band(self):
        target = gen_star_forest(16, [3, 3, 3])
        plan = partition_degree_classes(target, relaxed(cap=3.0))
        nonempty = [c for c in plan.classes[1:] if c]
        assert nonempty == [(0, 1, 2)]

    def test_only_non_empty_bands_are_kept(self):
        target = gen_star_forest(32, [8, 8, 4, 1])
        plan = partition_degree_classes(target, relaxed(eps=0.49, cap=8.0))
        assert plan.bands == (
            0,
            1,
            band_index_by_iteration(4, 8.0, plan.delta),
            band_index_by_iteration(1, 8.0, plan.delta),
        )
        assert plan.classes[1:] == ((0, 1), (2,), (3,))
        assert all(plan.classes[1:])

    def test_tiny_eps_huge_cap_has_few_bands(self):
        target = gen_star_forest(4, [1, 1, 1, 1])
        plan = partition_degree_classes(target, relaxed(eps=0.01, cap=1e308))
        assert len(plan.classes) == 2 and plan.classes[1] == (0, 1, 2, 3)
        assert plan.bands[1] == band_index_by_iteration(1, 1e308, 0.001)

    def test_empty_target(self):
        target = BipartiteGraph(8, 8)
        plan = partition_degree_classes(target, relaxed())
        assert plan.classes[0] == tuple(range(8))
        assert all(not c for c in plan.classes[1:])

    def test_cap_violation(self):
        target = gen_star_forest(16, [9])
        with pytest.raises(CapViolation):
            partition_degree_classes(target, relaxed(cap=8.0))

    def test_bad_target(self):
        target = BipartiteGraph(4, 4, {(0, 0), (1, 0)})
        with pytest.raises(BadTarget):
            partition_degree_classes(target, relaxed())

    def test_strict_mode_needs_every_t_vertex_covered(self):
        cfg = EmbedConfig(eps=0.4, mode="strict")
        with pytest.raises(BadTarget):
            partition_degree_classes(gen_star_forest(64, [1] * 63), cfg)
        with pytest.raises(BadTarget):
            partition_degree_classes(BipartiteGraph(4, 4, {(0, 0), (1, 0)}), cfg)

    def test_partition_covers_s(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(4, 32)
            hubs = [rng.randint(1, 4) for _ in range(rng.randint(0, n // 4))]
            target = gen_star_forest(n, hubs)
            plan = partition_degree_classes(target, relaxed(cap=4.0))
            seen = sorted(v for c in plan.classes for v in c)
            assert seen == list(range(n))


class TestSmallClass:
    def test_frozen_examples(self):
        # threshold at eps=0.5, n=100 is 64 * ln 100 ~ 294.73
        assert is_small_class(50, 0.5, 100)
        assert not is_small_class(295, 0.5, 100)

    def test_zero_always_small(self):
        assert is_small_class(0, 0.01, 2)


class TestGreedy:
    def run_greedy(self, host, target, cfg, seed=0):
        plan = partition_degree_classes(target, cfg)
        rng = random.Random(seed)
        perm = rng.sample(range(host.m), host.m)
        s_to_a = images_from_blocks(plan, blocks_from_permutation(plan, perm))
        small = [i for i in range(1, len(plan.classes)) if plan.classes[i]]
        return greedy_embed_small(host, target, plan, small, s_to_a, rng)

    def test_complete_host_never_sticks(self):
        host = biclique(8)
        target = gen_star_forest(8, [3, 2, 2])
        edges, t_assign, used = self.run_greedy(host, target, relaxed())
        assert len(edges) == 7 and len(used) == 7
        assert edges <= host.edges

    def test_exact_capacity_consumes_all(self):
        host = BipartiteGraph(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        target = gen_star_forest(2, [2])
        edges, _, used = self.run_greedy(host, target, relaxed(cap=2.0))
        assert used == {0, 1}

    def test_stuck_on_isolated_image(self):
        host = BipartiteGraph(2, 2, {(1, 0), (1, 1)})
        target = gen_star_forest(2, [1, 1])
        with pytest.raises(GreedyStuck):
            # both permutations leave one image with no neighbors
            self.run_greedy(host, target, relaxed(cap=2.0))


class TestAssignBlocksAndPairs:
    def test_single_large_class_gets_everything_needed(self):
        host = biclique(8)
        target = gen_star_forest(8, [2, 2, 2])
        plan = partition_degree_classes(target, relaxed(cap=2.0))
        pa = assign_blocks_and_pairs(host, target, plan, random.Random(0))
        assert len(pa.pairs) == 1
        (d, e) = pa.pairs[0]
        assert d == (0, 1, 2) and len(e) == 6

    def test_pair_sizes_and_disjointness(self):
        host = biclique(16)
        target = gen_star_forest(16, [3, 3, 5, 5])
        plan = partition_degree_classes(target, relaxed(cap=5.0))
        pa = assign_blocks_and_pairs(host, target, plan, random.Random(1))
        seen = set()
        for d_vertices, e_block in pa.pairs:
            assert len(e_block) == sum(len(target.a_adj[v]) for v in d_vertices)
            assert not (set(e_block) & seen)
            seen |= set(e_block)

    def test_deterministic_for_fixed_seed(self):
        host = biclique(12)
        target = gen_star_forest(12, [2, 2, 4])
        plan = partition_degree_classes(target, relaxed(cap=4.0))
        a = assign_blocks_and_pairs(host, target, plan, random.Random(9))
        b = assign_blocks_and_pairs(host, target, plan, random.Random(9))
        assert a == b

    def test_insufficient_b(self):
        host = biclique(4)
        target = gen_star_forest(4, [2, 2])
        plan = partition_degree_classes(target, relaxed(cap=2.0))
        with pytest.raises(InsufficientB):
            assign_blocks_and_pairs(
                host, target, plan, random.Random(0),
                used_by_greedy=frozenset({0, 1, 2}),
            )


class TestEmbedPair:
    def test_complete_induced_subgraph(self):
        host = biclique(6)
        edges = embed_pair(host, [0, 1], [2, 1], [3, 4, 5])
        assert not isinstance(edges, Infeasible)
        assert len(edges) == 3

    def test_isolated_image_infeasible(self):
        host = BipartiteGraph(3, 3, {(1, 0), (1, 1), (1, 2)})
        result = embed_pair(host, [0], [1], [0, 1])
        assert isinstance(result, Infeasible)

    def test_agrees_with_flow_on_induced_graph(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 8)
            host = gen_random_bipartite(n, rng.random(), rng)
            d_images = rng.sample(range(n), rng.randint(1, n))
            demands = [rng.randint(1, 3) for _ in d_images]
            size = min(n, sum(demands) + rng.choice((-1, 0, 0, 0)))
            e_block = rng.sample(range(n), max(size, 0))
            result = embed_pair(host, d_images, demands, e_block)
            e_pos = {b: j for j, b in enumerate(e_block)}
            induced = BipartiteGraph(
                len(d_images), len(e_block),
                {(i, e_pos[b]) for i, a in enumerate(d_images)
                 for b in host.a_adj[a] if b in e_pos},
            )
            flow = fixed_order_embed(
                induced, BigraphicSequence(tuple(demands), (1,) * len(e_block))
            )
            if isinstance(flow, Infeasible):
                assert result == flow
                continue
            assert not isinstance(result, Infeasible)
            assert set(result) <= host.edges
            # hub by hub in d_images order, every block vertex used once
            assert [a for a, _ in result] == [
                a for a, d in zip(d_images, demands) for _ in range(d)
            ]
            assert sorted(b for _, b in result) == sorted(e_block)

    def test_long_augmenting_paths_at_n_2048(self):
        # with hubs in descending order, greedy hands hub a the leaf a - 1
        # wherever set order lists it first, so hub 0 finds leaf 0 taken and
        # its augmenting path climbs back through the chain of hubs
        n = 2048
        host = BipartiteGraph(
            n, n, {(a, a) for a in range(n)} | {(a, a - 1) for a in range(1, n)}
        )
        d_images = list(range(n - 1, -1, -1))
        result = embed_pair(host, d_images, [1] * n, list(range(n)))
        assert sorted(result) == [(a, a) for a in range(n)]


class TestAzuma:
    def test_direct_value(self):
        assert azuma_bound(0.4, 200) == pytest.approx(math.exp(-4))

    def test_z_one_near_one(self):
        assert 0.97 < azuma_bound(0.25, 1) < 1.0

    def test_union_bound_display(self):
        # n * exp(-eps^2 z / 8) < 1/n at eps=0.5 (as bound parameter),
        # n=100, z=295
        eps, n, z = 0.5, 100, 295
        assert n * math.exp(-(eps**2) * z / 8) < 1 / n

    def test_empirical_frequency_below_bound(self):
        freq = empirical_bad_frequency(0.4, 200, trials=2000, seed=11)
        assert freq <= azuma_bound(0.4, 200)


class TestEmbedPipeline:
    def test_complete_host_matching(self):
        host = biclique(8)
        target = gen_star_forest(8, [1] * 8)
        result = embed(host, target, relaxed(cap=2.0, seed=3))
        assert verify_embedding(host, target, result)

    def test_counterexample_always_fails(self):
        host = gen_condition1_counterexample(8)
        target = gen_star_forest(8, [1] * 8)
        for seed in range(5):
            result = embed(host, target, relaxed(cap=2.0, seed=seed))
            assert isinstance(result, EmbedFailure)

    def test_seed_determinism(self):
        rng = random.Random(0)
        host = gen_random_bipartite(16, 0.8, rng)
        target = gen_star_forest(16, [3, 2, 2, 1])
        cfg = relaxed(cap=4.0, seed=77)
        r1 = embed(host, target, cfg)
        r2 = embed(host, target, cfg)
        assert r1 == r2

    def test_relaxed_rejects_excess_demand(self):
        host = biclique(4)
        target = gen_star_forest(4, [4])
        bigger = BipartiteGraph(4, 4, target.edges | {(1, 3)})
        result = embed(host, bigger, relaxed(cap=5.0))
        assert isinstance(result, EmbedFailure) and result.phase == "conditions"

    def test_strict_mode_demands_theorem_hypotheses(self):
        host = biclique(8)
        target = gen_star_forest(8, [1] * 8)
        cfg = EmbedConfig(eps=0.4, mode="strict", seed=0)
        result = embed(host, target, cfg)
        assert isinstance(result, EmbedFailure) and result.phase == "conditions"

    def test_degree_zero_t_vertices_allowed(self):
        host = biclique(8)
        target = gen_star_forest(8, [2, 1])  # only 3 T-vertices used
        result = embed(host, target, relaxed(cap=2.0, seed=0))
        assert verify_embedding(host, target, result)

    def test_large_class_goes_through_pair_flow(self):
        # n chosen so an all-ones hub side exceeds the small-class
        # threshold (16/eps^2) ln n and must take the pair route
        n = 400
        eps = 0.49
        assert not is_small_class(n, eps, n)
        host = gen_random_bipartite(n, 0.9, random.Random(42))
        target = gen_star_forest(n, [1] * n)
        result = embed(host, target, EmbedConfig(eps=eps, cap_override=1.0, seed=5))
        assert verify_embedding(host, target, result)

    def test_failure_reports_phase_and_attempts(self):
        host = gen_condition1_counterexample(4)
        target = gen_star_forest(4, [1] * 4)
        result = embed(host, target, relaxed(cap=2.0, retries=2, seed=0))
        assert isinstance(result, EmbedFailure)
        assert result.attempts == 3
        assert result.to_json_dict()["phase"] in {"greedy", "pairs"}
        assert result.to_json_dict()["attempts"] == 3
