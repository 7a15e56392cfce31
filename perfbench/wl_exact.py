"""exact: a fixed batch of exact decisions, each checked independently.

Set-up builds the batch from the seed (bipack's generators for the small
hosts, the benchmark's own sampler for the long sequences), writes it, and
starts a worker that loads it. Expected answers are computed afterwards and
untimed: Gale-Ryser through the conjugate sequence, networkx's Erdős-Gallai,
and planted answers for the oracles. The worker (launch.py exact) times every
decision on its own and checks it, outside the timed region, against the
expected answer and with the benchmark's own verifiers; the Lemma-4 check
must agree with the flow route on the same instance.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import statistics
import time
import traceback
from pathlib import Path

from checks import check_embedding, check_packing, check_subgraph_degrees, erdos_gallai, gale_ryser
from common import (
    Clock, Outcome, launch_argv, own_peak_rss_mb, layer_metrics, load_trace, overhead_metrics, run_child, run_for, timed_setup,
)

SETUP_REPS = 5
WITNESS_KINDS = ("realize_bigraphic", "fixed_order_embed", "brute_force_pack", "brute_force_embed")
VERDICTS = ("applies", "does-not-apply", "precondition-unmet")


# ---------------------------------------------------------------------------
# Batch construction (parent side).
# ---------------------------------------------------------------------------


def _sample_bipartite(rng, m, n, mean):
    """Edges of a random simple bipartite graph with exponential-ish A-degrees."""
    edges = []
    for a in range(m):
        for b in rng.sample(range(n), min(n, int(rng.expovariate(1.0 / mean)))):
            edges.append((a, b))
    return edges


def _degrees(edges, m, n):
    da, db = [0] * m, [0] * n
    for a, b in edges:
        da[a] += 1
        db[b] += 1
    return da, db


def _graph_json(g):
    return [g.m, g.n, sorted(g.edges)]


def _relabel(rng, edges, m, n):
    pa, pb = rng.sample(range(m), m), rng.sample(range(n), n)
    return [(pa[a], pb[b]) for a, b in edges]


def build_batch(seed):
    from bipack import generators

    rng = random.Random(seed)
    batch = []

    def add(kind, **data):
        batch.append({"kind": kind, "data": data})

    # Gale-Ryser at n=2000: a realized sequence, which passes every prefix
    # test, and the same B-side against all of the A-degree on one vertex,
    # more than there are B-vertices, which fails the first prefix test.
    da, db = _degrees(_sample_bipartite(rng, 2000, 2000, 10), 2000, 2000)
    add("is_bigraphic", a=da, b=db)
    moved = [0] * 2000
    moved[rng.randrange(2000)] = sum(da)
    add("is_bigraphic", a=moved, b=db)

    # Havel-Hakimi at length 4000: a graph's degree sequence and an odd-sum variant.
    deg = [0] * 4000
    pairs = {tuple(sorted(rng.sample(range(4000), 2))) for _ in range(40000)}
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    add("is_graphic", d=deg)
    add("is_graphic", d=deg[:-1] + [deg[-1] + 1])

    da, db = _degrees(_sample_bipartite(rng, 1000, 1000, 10), 1000, 1000)
    add("realize_bigraphic", a=da, b=db)

    # Lemma 4 against the flow route on 12x12 hosts: demands of a planted
    # subgraph, and the same with one A-demand raised above its host degree
    # (the B-side takes up the difference), which no subgraph can meet.
    for k in range(6):
        host = generators.gen_random_bipartite(12, 0.5, rng)
        planted = [e for e in sorted(host.edges) if rng.random() < 0.5]
        a, b = _degrees(planted, 12, 12)
        if k % 2:
            v = rng.randrange(12)
            extra = len(host.a_adj[v]) + 1 - a[v]
            a[v] += extra
            for i in range(extra):
                b[i % 12] += 1
        add("lemma4_check_exhaustive", host=_graph_json(host), a=a, b=b, pair=len(batch))
        add("fixed_order_embed", host=_graph_json(host), a=a, b=b, pair=len(batch) - 1)

    # Packing oracle on 4x4: planted packings, and two fixed shapes where a
    # full A-vertex of the first graph meets a second graph with no isolated
    # A-vertex, shuffled within each class.
    cells = [(a, b) for a in range(4) for b in range(4)]
    for _ in range(4):
        g1 = [c for c in cells if rng.random() < 0.3]
        g2 = [c for c in cells if c not in g1 and rng.random() < 0.3]
        add("brute_force_pack", seq1=_degrees(g1, 4, 4), seq2=_degrees(g2, 4, 4), expect="packing")
    for seq1, seq2 in ((([4, 0, 0, 0], [1, 1, 1, 1]), ([1, 1, 1, 1], [1, 1, 1, 1])),
                       (([4, 1, 0, 0], [2, 1, 1, 1]), ([1, 1, 1, 1], [2, 1, 1, 0]))):
        seq1, seq2 = ([rng.sample(side, 4) for side in seq] for seq in (seq1, seq2))
        add("brute_force_pack", seq1=seq1, seq2=seq2, expect="none")

    # Embedding oracle on 6x6: planted star forests and a planted general
    # subgraph, against condition1, whose all-ones target needs a perfect
    # matching that the host does not have.
    for k in range(4):
        host = generators.gen_random_bipartite(6, 0.6, rng)
        if k < 3:
            free = set(range(6))
            planted = []
            for a in rng.sample(range(6), 3):
                leaves = sorted(b for b in host.a_adj[a] if b in free)
                for b in rng.sample(leaves, min(len(leaves), rng.randint(1, 3))):
                    free.discard(b)
                    planted.append((a, b))
        else:
            planted = [e for e in sorted(host.edges) if rng.random() < 0.4][:12]
        target = [6, 6, sorted(_relabel(rng, planted, 6, 6))]
        add("brute_force_embed", host=_graph_json(host), target=target, expect="embedding")
    add(
        "brute_force_embed",
        host=_graph_json(generators.gen_condition1_counterexample(6)),
        target=_graph_json(generators.gen_star_forest(6, [1] * 6)),
        expect="none",
    )

    for _ in range(10):
        seqs = [_degrees(generators.gen_random_bipartite(8, rng.uniform(0.2, 0.5), rng).edges, 8, 8) for _ in range(2)]
        add("compare_theorems", seq1=seqs[0], seq2=seqs[1])
    return batch


def expected_answers(batch):
    """Independent answers where a decision has a yes/no answer known in advance."""
    expect = []
    for decision in batch:
        kind, data = decision["kind"], decision["data"]
        if kind == "is_bigraphic":
            expect.append(gale_ryser(data["a"], data["b"]))
        elif kind == "is_graphic":
            expect.append(erdos_gallai(data["d"]))
        elif kind == "compare_theorems":
            d1 = max(data["seq1"][0] + data["seq1"][1])
            d2 = max(data["seq2"][0] + data["seq2"][1])
            expect.append("applies" if 2 * d1 * d2 < 16 else "does-not-apply")
        else:
            expect.append(data.get("expect"))
    return expect


# ---------------------------------------------------------------------------
# Worker side (runs inside launch.py).
# ---------------------------------------------------------------------------


def _graph(bipack, data):
    m, n, edges = data
    return bipack.BipartiteGraph(m, n, frozenset(map(tuple, edges)))


def _prepare(bipack, decision):
    """(function name, arguments) of one decision, built before timing."""
    kind, data = decision["kind"], decision["data"]
    seq = bipack.BigraphicSequence
    if kind in ("is_bigraphic", "realize_bigraphic"):
        return kind, (seq(data["a"], data["b"]),)
    if kind == "is_graphic":
        return kind, (data["d"],)
    if kind in ("lemma4_check_exhaustive", "fixed_order_embed"):
        return kind, (_graph(bipack, data["host"]), seq(data["a"], data["b"]))
    if kind == "brute_force_pack":
        return kind, (seq(*data["seq1"]), seq(*data["seq2"]))
    if kind == "brute_force_embed":
        return kind, (_graph(bipack, data["host"]), _graph(bipack, data["target"]))
    args = (seq(*data["seq1"]), seq(*data["seq2"]))
    # compare_theorems takes an eps it does not use; pass it only while it does.
    if "eps" in inspect.signature(bipack.compare_theorems).parameters:
        args += (0.25,)
    return kind, args


def _canonical(bipack, kind, answer):
    """JSON-ready form of an answer, used for checks and digests."""
    if isinstance(answer, bool):
        return answer
    if isinstance(answer, bipack.BipartiteGraph):
        return sorted(map(list, answer.edges))
    if kind == "lemma4_check_exhaustive":
        return None if answer is None else [list(answer.x), list(answer.y), answer.lhs, answer.rhs, answer.side]
    if isinstance(answer, bipack.Infeasible):
        return {"infeasible": answer.deficit}
    if kind == "fixed_order_embed":
        return sorted(map(list, answer))
    if isinstance(answer, bipack.PackingWitness):
        return {"g1": sorted(map(list, answer.g1_edges)), "g2": sorted(map(list, answer.g2_edges))}
    if isinstance(answer, bipack.EmbeddingMap):
        return answer.to_json_dict()
    if isinstance(answer, (bipack.NoPacking, bipack.NoEmbedding)):
        return "none"
    if isinstance(answer, bipack.BudgetExceeded):
        return "budget-exceeded"
    return [[r.theorem, r.verdict] for r in answer]


def _is_witness(answer):
    """True for a canonical answer that carries a subgraph, packing or embedding."""
    return isinstance(answer, list) or (isinstance(answer, dict) and "infeasible" not in answer)


def _check(decision, expect, answer, answers):
    """Error message for a wrong answer, or None. answers holds this round's so far."""
    kind, data = decision["kind"], decision["data"]
    if kind in ("is_bigraphic", "is_graphic"):
        return None if answer == expect else f"answered {answer}, expected {expect}"
    if kind == "realize_bigraphic":
        return check_subgraph_degrees(None, len(data["a"]), len(data["b"]), answer, data["a"], data["b"])
    if kind == "lemma4_check_exhaustive":
        return None if answer is None or answer[2] > answer[3] else "reported violation is not violated"
    if kind == "fixed_order_embed":
        violation = answers[data["pair"]]
        if isinstance(answer, dict):
            return None if violation is not None else "flow infeasible but the subset condition holds"
        if violation is not None:
            return "flow found a subgraph but the subset condition reports a violation"
        m, n, edges = data["host"]
        return check_subgraph_degrees(set(map(tuple, edges)), m, n, answer, data["a"], data["b"])
    if kind == "brute_force_pack":
        if not isinstance(answer, dict):
            return None if answer == expect else f"answered {answer}, expected {expect}"
        if expect != "packing":
            return "found a packing where none exists"
        return check_packing(4, 4, data["seq1"], data["seq2"], answer["g1"], answer["g2"])
    if kind == "brute_force_embed":
        if not isinstance(answer, dict):
            return None if answer == expect else f"answered {answer}, expected {expect}"
        if expect != "embedding":
            return "found an embedding where none exists"
        m, n, edges = data["host"]
        return check_embedding((m, n, set(map(tuple, edges))), data["target"], answer)
    verdicts = dict(answer)
    if any(v not in VERDICTS for v in verdicts.values()):
        return "unknown verdict"
    return None if verdicts.get("sauer-spencer") == expect else "sauer-spencer verdict differs"


def _load(path):
    import bipack

    batch = json.loads(Path(path).read_text())
    return bipack, batch, [_prepare(bipack, decision) for decision in batch]


def load(path):
    _load(path)


def work(path, seconds, result_path):
    bipack, batch, prepared = _load(path)
    expect = json.loads(Path(str(path) + ".expect").read_text())
    rounds, errors = [], []
    witnessed = sum(d["kind"] in WITNESS_KINDS for d in batch)
    for name, args in prepared:  # warm-up round, which also reaches a round's peak memory
        try:
            getattr(bipack, name)(*args)
        except Exception:  # reported by the measured rounds
            pass
    peak_rss_mb = own_peak_rss_mb()
    clock = Clock()

    def one_round():
        answers, wall, successes = [], 0.0, 0
        for index, (name, args) in enumerate(prepared):
            function = getattr(bipack, name)
            start = time.perf_counter()
            try:
                answer = function(*args)
            except Exception:  # a crash is one failed decision; the batch goes on
                wall += time.perf_counter() - start
                answers.append("error")
                errors.append(f"decision {index} ({name}) raised: {traceback.format_exc(limit=3)}")
                continue
            wall += time.perf_counter() - start
            answer = _canonical(bipack, name, answer)
            answers.append(answer)
            problem = _check(batch[index], expect[index], answer, answers)
            if problem is not None:
                errors.append(f"decision {index} ({name}): {problem}")
            elif name in WITNESS_KINDS and _is_witness(answer):
                successes += 1
        digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
        rounds.append({"wall": wall, "scaled": clock.scale(wall), "digest": digest, "successes": successes})
        return wall

    run_for(seconds, one_round)
    Path(result_path).write_text(
        json.dumps(
            {
                "rounds": rounds,
                "errors": errors,
                "decisions": len(batch),
                "witnessed": witnessed,
                "peak_rss_mb": peak_rss_mb,
            }
        )
    )


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def _setup(seed, work, outcome):
    batch_path = work / "exact.json"
    batch_path.write_text(json.dumps(build_batch(seed)))
    child = run_child(launch_argv("exact", batch_path, "--load-only"), work)
    problem = child.problem()
    if problem is not None:
        outcome.fail(f"loading the exact batch: {problem}")
    return batch_path


def _run_worker(batch_path, seconds, work, outcome, trace_file=None):
    result_path = work / "exact-result.json"
    result_path.unlink(missing_ok=True)
    child = run_child(launch_argv("exact", batch_path, seconds, result_path, trace_file=trace_file), work)
    problem = child.problem()
    if problem is not None or not result_path.is_file():
        outcome.attempted += 1
        outcome.fail(f"exact worker: {problem or 'no result file'}")
        return None, 0.0
    result = json.loads(result_path.read_text())
    outcome.attempted += result["decisions"] * len(result["rounds"])
    for message in result["errors"]:
        outcome.fail(message)
    digests = {one["digest"] for one in result["rounds"]}
    if len(digests) != 1:
        outcome.fail("decision answers differ between rounds")
    return result, result["peak_rss_mb"]


def _walls(result, key="scaled"):
    return [one[key] for one in result["rounds"]]


def run(seed, seconds, trace, work):
    outcome = Outcome()
    if not trace:
        setup_s, raw_setup_s, batch_path, _ = timed_setup(lambda: _setup(seed, work, outcome), SETUP_REPS)
    else:
        batch_path = _setup(seed, work, outcome)
    Path(str(batch_path) + ".expect").write_text(
        json.dumps(expected_answers(json.loads(batch_path.read_text())))
    )
    if not trace:
        result, rss = _run_worker(batch_path, seconds, work, outcome)
        if result is None:
            return {}, {}, outcome, {}
        walls, decisions = _walls(result), result["decisions"]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "solve_s.p50": statistics.median(walls) / decisions,
            "peak_rss_mb": rss,
            "ops_per_s": decisions / statistics.median(walls),
            "success_rate": result["rounds"][0]["successes"] / result["witnessed"],
        }
        samples = {"setup_s": SETUP_REPS, "wall_s": len(walls), "solve_s.p50": len(walls)}
        raw = {"setup_s": raw_setup_s, "wall_s": statistics.median(_walls(result, "wall"))}
        return metrics, samples, outcome, {"raw": raw}

    untraced, _ = _run_worker(batch_path, seconds / 2, work, outcome)
    trace_file = work / "trace-exact.json"
    traced, _ = _run_worker(batch_path, seconds / 2, work, outcome, trace_file)
    if untraced is None or traced is None:
        return {}, {}, outcome, {}
    if traced["rounds"][0]["digest"] != untraced["rounds"][0]["digest"]:
        outcome.fail("traced and untraced exact runs gave different answers")
    # the trace also covers the worker's warm-up round
    metrics, wrapped, absent = layer_metrics([], [load_trace(trace_file)], len(traced["rounds"]) + 1)
    metrics.update(overhead_metrics(_walls(untraced), _walls(traced)))
    return metrics, {"trace.overhead_s": len(traced["rounds"])}, outcome, {"wrapped": wrapped, "absent": absent}
