"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import json
import math
import random
import time
from itertools import product

from bipack.conditions import compare_theorems
from bipack.embedder import (
    EmbedConfig,
    EmbedFailure,
    assign_blocks_and_pairs,
    azuma_bound,
    embed,
    empirical_bad_frequency,
    partition_degree_classes,
)
from bipack.experiments import ExperimentSpec, GridPoint, run_experiment
from bipack.flow import Infeasible, fixed_order_embed, lemma4_check_exhaustive
from bipack.generators import (
    gen_condition1_counterexample,
    gen_random_bipartite,
    gen_star_forest,
)
from bipack.graphs import (
    BigraphicSequence,
    BipartiteGraph,
    degree_sequence_of,
    verify_embedding,
)
from bipack.oracle import NoEmbedding, OracleBudget, brute_force_embed
from bipack.sequences import is_bigraphic, is_graphic
from util_enumeration import all_bipartite_graphs, bigraphic_multisets, graphic_multisets


def report(number, ok, label):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, label


def test_criterion_1_lemma4_flow_equivalence():
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for m, n in product(range(1, 4), repeat=2):
        demand = BigraphicSequence((1,) * m, (1,) * n)
        for host in all_bipartite_graphs(m, n):
            feasible = not isinstance(fixed_order_embed(host, demand), Infeasible)
            clean = lemma4_check_exhaustive(host, demand) is None
            disagreements += clean != feasible
            checked += 1
    rng = random.Random(1)
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        p = rng.random()
        host = BipartiteGraph(
            m, n, frozenset((a, b) for a in range(m) for b in range(n) if rng.random() < p)
        )
        if rng.random() < 0.5:
            keep = frozenset(e for e in host.edges if rng.random() < 0.6)
            demand = degree_sequence_of(BipartiteGraph(m, n, keep))
        else:
            demand = BigraphicSequence(
                tuple(rng.randint(0, n) for _ in range(m)),
                tuple(rng.randint(0, m) for _ in range(n)),
            )
        feasible = not isinstance(fixed_order_embed(host, demand), Infeasible)
        clean = lemma4_check_exhaustive(host, demand) is None
        disagreements += clean != feasible
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        disagreements == 0 and elapsed < 60,
        f"subset condition == flow constructor on {checked} instances "
        f"({disagreements} disagreements, {elapsed:.1f}s)",
    )


def test_criterion_2_realizability_oracles():
    start = time.perf_counter()
    bad = 0
    for n in range(1, 6):
        realizable = graphic_multisets(n)
        for degs in product(range(5), repeat=n):
            bad += is_graphic(list(degs)) != (tuple(sorted(degs)) in realizable)
    for m, n in product(range(1, 4), repeat=2):
        realizable = bigraphic_multisets(m, n)
        for a in product(range(n + 1), repeat=m):
            for b in product(range(m + 1), repeat=n):
                expected = (tuple(sorted(a)), tuple(sorted(b))) in realizable
                bad += is_bigraphic(BigraphicSequence(a, b)) != expected
    elapsed = time.perf_counter() - start
    report(
        2,
        bad == 0 and elapsed < 60,
        f"graphic/bigraphic tests match enumeration ({bad} disagreements, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_3_condition1_necessity():
    ok = True
    for n in (4, 8, 12):
        host = gen_condition1_counterexample(n)
        target = gen_star_forest(n, [1] * n)
        demand = degree_sequence_of(target)
        ok &= isinstance(fixed_order_embed(host, demand), Infeasible)
        if n in (4, 8):
            budget = OracleBudget(max_nodes=16, node_limit=5_000_000)
            ok &= isinstance(brute_force_embed(host, target, budget), NoEmbedding)
        for seed in range(20):
            cfg = EmbedConfig(eps=0.3, cap_override=2.0, retries=5, seed=seed)
            ok &= isinstance(embed(host, target, cfg), EmbedFailure)
    report(3, ok, "unbalanced-biclique hosts defeat flow, oracle and pipeline")


def test_criterion_4_dense_host_success_rate():
    start = time.perf_counter()
    n, p = 64, 0.75
    successes = 0
    for seed in range(100):
        rng = random.Random(seed)
        host = gen_random_bipartite(n, p, rng)
        while host.min_degree() < 0.6 * n:
            host = gen_random_bipartite(n, p, rng)
        target = gen_star_forest(n, [4] * 12)
        cfg = EmbedConfig(eps=0.4, cap_override=4.0, retries=5, seed=seed)
        result = embed(host, target, cfg)
        if not isinstance(result, EmbedFailure):
            assert verify_embedding(host, target, result)
            successes += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        successes >= 99 and elapsed < 120,
        f"dense-host pipeline success {successes}/100 seeds ({elapsed:.1f}s)",
    )


def test_criterion_5_concentration_bound():
    eps, z = 0.4, 200
    freq = empirical_bad_frequency(eps, z, universe=1000, trials=10_000, seed=2024)
    bound = azuma_bound(eps, z)
    display = 100 * math.exp(-(0.5**2) * 295 / 8) < 1 / 100
    report(
        5,
        freq <= bound and display,
        f"empirical bad frequency {freq:.5f} <= {bound:.5f}; union-bound "
        f"display holds: {display}",
    )


def test_criterion_6_remark_comparisons():
    n = 2**14
    d1 = int(n / (100 * math.log(n)))
    seq1 = BigraphicSequence((d1,) + (1,) * (n - 1), (1,) * n)
    d2 = -(-n // 2)
    seq2 = BigraphicSequence((d2,) * n, (d2,) * n)
    reports = {r.theorem: r for r in compare_theorems(seq1, seq2)}
    ok = all(
        reports[t].verdict == "does-not-apply"
        for t in ("sauer-spencer", "diemunsch-graphic", "diemunsch-bigraphic")
    )
    report(6, ok, "prior-theorem checkers all decline the dense/star regime")


def test_criterion_7_determinism(tmp_path):
    rng = random.Random(7)
    ok = True
    for _ in range(10):
        n = rng.choice([8, 12, 16])
        p = rng.uniform(0.6, 1.0)
        seed = rng.randrange(1 << 32)
        host = gen_random_bipartite(n, p, random.Random(seed))
        target = gen_star_forest(n, [2] * (n // 4))
        cfg = EmbedConfig(eps=0.35, cap_override=2.0, retries=3, seed=seed)
        payloads = []
        for _ in range(2):
            result = embed(host, target, cfg)
            obj = (
                result.to_json_dict()
                if isinstance(result, (EmbedFailure,))
                else result.to_json_dict()
            )
            payloads.append(json.dumps(obj, sort_keys=True))
        ok &= payloads[0] == payloads[1]
    spec_kwargs = dict(
        grid=(GridPoint(8, 0.9, 2, 0.4),), trials=3, seed_base=11
    )
    texts = []
    for tag in ("x", "y"):
        out = tmp_path / tag / "exp"
        run_experiment(ExperimentSpec(out=str(out), **spec_kwargs))
        texts.append(
            (out.parent / "exp.csv").read_bytes()
            + (out.parent / "exp.records.json").read_bytes()
        )
    ok &= texts[0] == texts[1]
    report(7, ok, "embed and experiment payloads are byte-identical per seed")


def test_criterion_8_partition_and_pair_invariants():
    rng = random.Random(88)
    ok = True
    for trial in range(100):
        n = rng.randint(8, 48)
        hubs = []
        left = n
        while left > 0 and len(hubs) < n and rng.random() < 0.85:
            d = rng.randint(1, min(6, left))
            hubs.append(d)
            left -= d
        target = gen_star_forest(n, hubs)
        host = gen_random_bipartite(n, 0.9, rng)
        cfg = EmbedConfig(eps=0.35, cap_override=6.0, seed=trial)
        plan = partition_degree_classes(target, cfg)
        ok &= plan.bands[0] == 0 and list(plan.bands) == sorted(set(plan.bands))
        for i, cls in zip(plan.bands, plan.classes):
            if i == 0:
                ok &= all(len(target.a_adj[v]) == 0 for v in cls)
                continue
            ok &= bool(cls)
            for v in cls:
                d = len(target.a_adj[v])
                ok &= plan.cap / (1 + plan.delta) ** i < d
                ok &= d <= plan.cap / (1 + plan.delta) ** (i - 1)
        pa = assign_blocks_and_pairs(host, target, plan, random.Random(trial))
        for d_vertices, e_block in pa.pairs:
            ok &= len(e_block) == sum(len(target.a_adj[v]) for v in d_vertices)
    report(8, ok, "degree bands and pair sizes exact on 100 random targets")
