"""Exponential-time ground truth for small instances.

The embed oracle backtracks over injective hub-side maps (pruned only by
degree counts) and settles the leaf side exactly: with all T-degrees at
most 1 that subproblem is a b-matching, solved by the augmenting-path
engine ``flow.capacitated_matching``; otherwise it backtracks over T as
well. The packing oracle enumerates realizations of the first sequence
as row tuples, drawing each row only from the masks whose popcount is one
of its A-degrees, in the same increasing order as a scan of every mask.
Budget exhaustion is a third result, never folded into yes/no.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .flow import Infeasible, capacitated_matching, fixed_order_embed
from .graphs import (
    BigraphicSequence,
    BipartiteGraph,
    EmbeddingMap,
    PackingWitness,
    complement_in_biclique,
    complete_injection,
    set_bits,
    verify_embedding,
    verify_packing,
)


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 12  # cap on m + n
    max_edges_target: int = 16
    node_limit: int = 2_000_000  # backtracking node budget

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_edges_target <= 0 or self.node_limit <= 0:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True)
class NoEmbedding:
    pass


@dataclass(frozen=True)
class NoPacking:
    pass


@dataclass(frozen=True)
class BudgetExceeded:
    detail: str = ""


class _OutOfNodes(Exception):
    pass


def brute_force_embed(
    host: BipartiteGraph, target: BipartiteGraph, budget: OracleBudget = OracleBudget()
):
    """Exhaustive decision: is the target a subgraph of the host?

    Returns a verified EmbeddingMap, NoEmbedding, or BudgetExceeded.
    """
    if host.m + host.n > budget.max_nodes:
        return BudgetExceeded(f"{host.m + host.n} vertices > {budget.max_nodes}")
    if len(target.edges) > budget.max_edges_target:
        return BudgetExceeded(f"{len(target.edges)} target edges")
    if target.m > host.m or target.n > host.n:
        return NoEmbedding()
    leaves_simple = all(d <= 1 for d in target.b_degrees)
    nodes = [0]

    def spend():
        nodes[0] += 1
        if nodes[0] > budget.node_limit:
            raise _OutOfNodes()

    s_order = sorted(range(target.m), key=lambda s: -len(target.a_adj[s]))
    hubs = [s for s in range(target.m) if target.a_adj[s]]
    hub_demands = [len(target.a_adj[s]) for s in hubs]
    host_degrees = host.a_degrees
    sorted_b_adj = [set_bits(row) for row in host.rows]

    def match_leaves(s_to_a):
        """t -> b for every T-vertex with an S-neighbour, or None."""
        assigned, deficit = capacitated_matching(
            [sorted_b_adj[s_to_a[s]] for s in hubs], hub_demands
        )
        if deficit:
            return None
        return {
            t: b
            for s, hit in zip(hubs, assigned)
            for t, b in zip(sorted(target.a_adj[s]), sorted(hit))
        }

    def place_t(s_to_a):
        """Backtrack over injective T->B maps (general targets only)."""

        def rec(idx, t_to_b, used):
            spend()
            if idx == target.n:
                return dict(t_to_b)
            t = idx
            for b in range(host.n):
                if b in used:
                    continue
                if not all(host.has_edge(s_to_a[s], b) for s in target.b_adj[t]):
                    continue
                t_to_b[t] = b
                used.add(b)
                got = rec(idx + 1, t_to_b, used)
                if got is not None:
                    return got
                del t_to_b[t]
                used.remove(b)
            return None

        return rec(0, {}, set())

    def rec(idx, s_to_a, used_a):
        spend()
        if idx == target.m:
            if leaves_simple:
                partial = match_leaves(s_to_a)
                if partial is None:
                    return None
                return s_to_a, complete_injection(partial, target.n, host.n)
            t_map = place_t(s_to_a)
            if t_map is None:
                return None
            return s_to_a, [t_map[t] for t in range(target.n)]
        s = s_order[idx]
        need = len(target.a_adj[s])
        for a in range(host.m):
            if a in used_a or host_degrees[a] < need:
                continue
            s_to_a[s] = a
            used_a.add(a)
            got = rec(idx + 1, s_to_a, used_a)
            if got is not None:
                return got
            del s_to_a[s]
            used_a.remove(a)
        return None

    try:
        found = rec(0, {}, set())
    except _OutOfNodes:
        return BudgetExceeded(f"node budget {budget.node_limit} exhausted")
    if found is None:
        return NoEmbedding()
    s_map, t_map = found
    s_to_a = tuple(s_map[s] for s in range(target.m))
    edges = frozenset((s_to_a[s], t_map[t]) for s, t in target.edges)
    emb = EmbeddingMap(s_to_a, tuple(t_map), edges)
    if not verify_embedding(host, target, emb):
        raise AssertionError("oracle produced an invalid embedding")
    return emb


def _distinct_permutations(values):
    seen = set()
    for p in permutations(values):
        if p not in seen:
            seen.add(p)
            yield p


def brute_force_pack(
    seq1: BigraphicSequence,
    seq2: BigraphicSequence,
    budget: OracleBudget = OracleBudget(max_nodes=8),
):
    """Exact unordered-packing decision for two bigraphic sequences.

    Enumerates every subgraph of K_{m,n} realizing seq1 up to in-class
    relabeling, and tests whether some in-class permutation of seq2 embeds
    into its complement with fixed order.
    """
    if (seq1.m, seq1.n) != (seq2.m, seq2.n):
        raise ValueError("sequence shapes must match")
    m, n = seq1.m, seq1.n
    if m + n > budget.max_nodes:
        return BudgetExceeded(f"{m + n} vertices > {budget.max_nodes}")
    if seq1.a_sum != seq1.b_sum or seq2.a_sum != seq2.b_sum:
        return NoPacking()
    want_a = sorted(seq1.a_degrees)
    want_b = sorted(seq1.b_degrees)
    perms2 = [
        BigraphicSequence(pa, pb)
        for pa in _distinct_permutations(seq2.a_degrees)
        for pb in _distinct_permutations(seq2.b_degrees)
    ]
    # Cell (a, b) is bit a*n + b of a candidate mask over all m*n cells, so
    # row a is the mask's a-th n-bit slice. Only rows whose popcount is an
    # A-degree of seq1 can occur; product() over those rows, row m-1
    # outermost, visits the surviving masks in increasing order.
    wanted = set(want_a)
    row_choices = [row for row in range(1 << n) if row.bit_count() in wanted]
    # The budget counts every mask in range(node_limit), kept or not: the
    # search gives up at the first surviving mask at or beyond it, whose
    # rows, row m-1 first, compare at least limit_rows.
    full = (1 << n) - 1
    budget_binds = budget.node_limit < 1 << (m * n)
    limit_rows = tuple(budget.node_limit >> (a * n) & full for a in reversed(range(m)))
    for high_first in product(row_choices, repeat=m):
        if budget_binds and high_first >= limit_rows:
            return BudgetExceeded(f"node budget {budget.node_limit} exhausted")
        rows = high_first[::-1]
        if sorted(map(int.bit_count, rows)) != want_a:
            continue
        if sorted(sum(row >> b & 1 for row in rows) for b in range(n)) != want_b:
            continue
        g1 = BipartiteGraph.from_rows(m, n, rows)
        comp = complement_in_biclique(g1)
        for cand in perms2:
            result = fixed_order_embed(comp, cand)
            if not isinstance(result, Infeasible):
                witness = PackingWitness(g1.edges, result)
                if not verify_packing(witness, seq1, seq2):
                    raise AssertionError("oracle produced an invalid packing")
                return witness
    if budget_binds:
        return BudgetExceeded(f"node budget {budget.node_limit} exhausted")
    return NoPacking()
