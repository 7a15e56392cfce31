import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bipack

from bipack.flow import Infeasible, fixed_order_embed
from bipack.generators import gen_condition1_counterexample, gen_star_forest
from bipack.graphs import (
    BigraphicSequence,
    BipartiteGraph,
    EmbeddingMap,
    PackingWitness,
    complement_in_biclique,
    degree_sequence_of,
    verify_embedding,
    verify_packing,
)
from bipack.oracle import (
    BudgetExceeded,
    NoEmbedding,
    NoPacking,
    OracleBudget,
    _distinct_permutations,
    brute_force_embed,
    brute_force_pack,
)
from util_enumeration import all_bipartite_graphs


def biclique(m, n):
    return BipartiteGraph(m, n, {(a, b) for a in range(m) for b in range(n)})


def pack_scanning_every_mask(seq1, seq2, node_limit):
    """Reference for brute_force_pack past its size checks: every mask over
    the m*n cells in increasing order, one budget unit each."""
    m, n = seq1.m, seq1.n
    if seq1.a_sum != seq1.b_sum or seq2.a_sum != seq2.b_sum:
        return NoPacking()
    perms2 = [
        BigraphicSequence(pa, pb)
        for pa in _distinct_permutations(seq2.a_degrees)
        for pb in _distinct_permutations(seq2.b_degrees)
    ]
    full = (1 << n) - 1
    for mask in range(1 << (m * n)):
        if mask >= node_limit:
            return BudgetExceeded()
        rows = [mask >> (a * n) & full for a in range(m)]
        if sorted(row.bit_count() for row in rows) != sorted(seq1.a_degrees):
            continue
        if sorted(sum(row >> b & 1 for row in rows) for b in range(n)) != sorted(seq1.b_degrees):
            continue
        g1 = BipartiteGraph.from_rows(m, n, rows)
        for cand in perms2:
            result = fixed_order_embed(complement_in_biclique(g1), cand)
            if not isinstance(result, Infeasible):
                return PackingWitness(g1.edges, result)
    return NoPacking()


def pack_outcome(result):
    if isinstance(result, PackingWitness):
        return sorted(result.g1_edges), sorted(result.g2_edges)
    return type(result).__name__


@st.composite
def sequence_pairs(draw, max_side=3):
    """Two degree sequences on one shape: a planted packing, or arbitrary."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    cells = (1 << n) - 1
    rows1 = draw(st.lists(st.integers(0, cells), min_size=m, max_size=m))
    if draw(st.booleans()):
        rows2 = [~r & draw(st.integers(0, cells)) for r in rows1]
    else:
        rows2 = draw(st.lists(st.integers(0, cells), min_size=m, max_size=m))
    seqs = [
        degree_sequence_of(BipartiteGraph.from_rows(m, n, rows)) for rows in (rows1, rows2)
    ]
    if n and draw(st.booleans()):  # often unequal side sums
        b = list(seqs[0].b_degrees)
        b[0] += 1
        seqs[0] = BigraphicSequence(seqs[0].a_degrees, b)
    return seqs


class TestBruteForceEmbed:
    def test_target_equals_host(self):
        g = BipartiteGraph(3, 3, {(0, 0), (1, 1), (2, 0)})
        result = brute_force_embed(g, g)
        assert isinstance(result, EmbeddingMap)
        assert verify_embedding(g, g, result)

    def test_counterexample_has_no_matching(self):
        host = gen_condition1_counterexample(4)
        target = gen_star_forest(4, [1] * 4)
        assert isinstance(brute_force_embed(host, target), NoEmbedding)

    def test_more_s_than_a(self):
        host = biclique(2, 3)
        target = biclique(3, 3)
        assert isinstance(brute_force_embed(host, target), NoEmbedding)

    def test_budget_exceeded_is_distinct(self):
        host = biclique(4, 4)
        result = brute_force_embed(host, host, OracleBudget(max_nodes=6))
        assert isinstance(result, BudgetExceeded)

    def test_general_target_backtracking(self):
        # T-degrees above 1 exercise the non-matching path
        host = biclique(3, 3)
        target = BipartiteGraph(3, 3, {(0, 0), (1, 0), (0, 1)})
        result = brute_force_embed(host, target)
        assert isinstance(result, EmbeddingMap)
        assert verify_embedding(host, target, result)

    def test_stable_under_host_relabeling(self):
        host = gen_condition1_counterexample(4)
        target = gen_star_forest(4, [1] * 4)
        rng = random.Random(3)
        for _ in range(5):
            pa = rng.sample(range(4), 4)
            pb = rng.sample(range(4), 4)
            relabeled = BipartiteGraph(
                4, 4, frozenset((pa[a], pb[b]) for a, b in host.edges)
            )
            assert isinstance(brute_force_embed(relabeled, target), NoEmbedding)

    def test_agrees_with_flow_route(self):
        # star-forest demands: the flow framing and the oracle must agree
        rng = random.Random(99)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            host = BipartiteGraph(
                m, n,
                frozenset(
                    (a, b)
                    for a in range(m)
                    for b in range(n)
                    if rng.random() < rng.random()
                ),
            )
            hubs = []
            left = n
            for _ in range(m):
                d = rng.randint(0, min(2, left))
                hubs.append(d)
                left -= d
            target = gen_star_forest(max(m, n), hubs[:m])
            target = BipartiteGraph(
                m, n, frozenset((s, t) for s, t in target.edges if s < m and t < n)
            )
            # flow route needs the demand padded with exact B-degrees
            demand = degree_sequence_of(target)
            flow_ok = not isinstance(fixed_order_embed(host, demand), Infeasible)
            oracle_ok = isinstance(brute_force_embed(host, target), EmbeddingMap)
            # the oracle may relabel, so it succeeds at least when flow does
            if flow_ok:
                assert oracle_ok


class TestBruteForcePack:
    def test_two_matchings_pack(self):
        ones = BigraphicSequence((1, 1), (1, 1))
        result = brute_force_pack(ones, ones)
        assert isinstance(result, PackingWitness)
        assert verify_packing(result, ones, ones)

    def test_full_biclique_leaves_no_room(self):
        full = BigraphicSequence((2, 2), (2, 2))
        other = BigraphicSequence((1, 0), (1, 0))
        assert isinstance(brute_force_pack(full, other), NoPacking)

    def test_unequal_side_sums(self):
        bad = BigraphicSequence((2, 2), (2, 1))
        ones = BigraphicSequence((1, 1), (1, 1))
        assert isinstance(brute_force_pack(bad, ones), NoPacking)

    def test_budget(self):
        ones = BigraphicSequence((1,) * 5, (1,) * 5)
        assert isinstance(
            brute_force_pack(ones, ones, OracleBudget(max_nodes=8)), BudgetExceeded
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sequence_pairs(), st.sampled_from(["1", "100", "all-1", "all", "default"]))
    def test_same_answer_as_scanning_every_mask(self, seqs, limit):
        seq1, seq2 = seqs
        cells = 1 << (seq1.m * seq1.n)
        node_limit = {
            "1": 1, "100": 100, "all-1": max(cells - 1, 1), "all": cells,
            "default": OracleBudget().node_limit,
        }[limit]
        budget = OracleBudget(max_nodes=8, node_limit=node_limit)
        got = brute_force_pack(seq1, seq2, budget)
        assert pack_outcome(got) == pack_outcome(pack_scanning_every_mask(seq1, seq2, node_limit))

    def test_budget_counts_every_mask_below_the_limit(self):
        # 2x2 all-ones: the first realization is mask 0b0110 = 6 (cells
        # (0, 1) and (1, 0)), so a limit of 6 stops just before it and 7
        # reaches it
        ones = BigraphicSequence((1, 1), (1, 1))
        for node_limit in (1, 5, 6, 7, 15, 16):
            budget = OracleBudget(max_nodes=8, node_limit=node_limit)
            expected = pack_scanning_every_mask(ones, ones, node_limit)
            assert pack_outcome(brute_force_pack(ones, ones, budget)) == pack_outcome(expected)
        assert isinstance(brute_force_pack(ones, ones, OracleBudget(node_limit=6)), BudgetExceeded)
        assert isinstance(brute_force_pack(ones, ones, OracleBudget(node_limit=7)), PackingWitness)

    def test_empty_sides(self):
        for m, n in ((0, 0), (0, 3), (3, 0)):
            zeros = BigraphicSequence((0,) * m, (0,) * n)
            got = brute_force_pack(zeros, zeros, OracleBudget(node_limit=1))
            assert isinstance(got, PackingWitness) and not got.g1_edges and not got.g2_edges
        assert isinstance(
            brute_force_pack(
                BigraphicSequence((), (0, 1)), BigraphicSequence((), (0, 0))
            ),
            NoPacking,
        )

    def test_4x4_against_scanning_every_mask(self):
        rng = random.Random(44)
        cells = [(a, b) for a in range(4) for b in range(4)]
        for _ in range(3):
            g1 = [c for c in cells if rng.random() < 0.3]
            g2 = [c for c in cells if c not in g1 and rng.random() < 0.3]
            seq1 = degree_sequence_of(BipartiteGraph(4, 4, g1))
            seq2 = degree_sequence_of(BipartiteGraph(4, 4, g2))
            got = brute_force_pack(seq1, seq2)
            assert pack_outcome(got) == pack_outcome(pack_scanning_every_mask(seq1, seq2, 1 << 16))

    def test_unordered_relabel_needed(self):
        # positional seq2 clashes with the canonical seq1 realization but a
        # permutation packs
        s1 = BigraphicSequence((2, 0), (1, 1))
        s2 = BigraphicSequence((0, 2), (1, 1))
        result = brute_force_pack(s1, s2)
        assert isinstance(result, PackingWitness)


class TestOracleAgreementSmall:
    def test_all_shapes_all_ones(self):
        for m, n in [(1, 1), (2, 2), (2, 3)]:
            target = BipartiteGraph(
                m, n, frozenset((i, i) for i in range(min(m, n)))
            )
            demand = degree_sequence_of(target)
            for host in all_bipartite_graphs(m, n):
                flow_ok = not isinstance(
                    fixed_order_embed(host, demand), Infeasible
                )
                oracle_result = brute_force_embed(host, target)
                assert not isinstance(oracle_result, BudgetExceeded)
                if flow_ok:
                    assert isinstance(oracle_result, EmbeddingMap)


class TestWitnessChecksUnderOptimize:
    def test_invalid_witnesses_raise_under_python_O(self):
        # a verifier that rejects everything must stop both oracles, even
        # with assert statements compiled away
        script = textwrap.dedent(
            """
            import bipack.oracle as oracle
            from bipack.graphs import BigraphicSequence, BipartiteGraph

            if __debug__:
                raise SystemExit("not running under -O")
            oracle.verify_embedding = lambda *args: False
            oracle.verify_packing = lambda *args: False
            g = BipartiteGraph(2, 2, {(0, 0), (1, 1)})
            ones = BigraphicSequence((1, 1), (1, 1))
            for call in (
                lambda: oracle.brute_force_embed(g, g),
                lambda: oracle.brute_force_pack(ones, ones),
            ):
                try:
                    call()
                except AssertionError:
                    continue
                raise SystemExit(f"no error from {call}")
            """
        )
        src = str(Path(bipack.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
