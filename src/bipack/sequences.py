"""Realizability tests for graphic and bigraphic degree sequences.

All functions are pure; inputs are never mutated (sorting happens on
copies). Graphic sequences are plain lists of non-negative integers.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import BigraphicSequence, BipartiteGraph, degree_sequence_of


class NotBigraphic(ValueError):
    """Raised by realize_bigraphic when the sequence is not bigraphic."""


def is_graphic(degrees: Sequence[int]) -> bool:
    """Havel-Hakimi test: does some simple graph realize these degrees?

    Sort descending, delete the first term d, subtract 1 from the next d
    terms, recurse; fail if d exceeds the remaining length or a term goes
    negative.
    """
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


def is_bigraphic(s: BigraphicSequence) -> bool:
    """Gale-Ryser test for bipartite realizability.

    Side sums must agree and, with a-degrees sorted descending, every
    prefix must satisfy sum_{i<=k} a_i <= sum_j min(b_j, k).
    """
    if s.a_sum != s.b_sum:
        return False
    a = sorted(s.a_degrees, reverse=True)
    b = list(s.b_degrees)
    prefix = 0
    for k in range(1, len(a) + 1):
        prefix += a[k - 1]
        if prefix > sum(min(bj, k) for bj in b):
            return False
    return True


def realize_bigraphic(s: BigraphicSequence) -> BipartiteGraph:
    """Build a graph whose degree sequence equals s positionally.

    Greedy construction: process a-vertices in descending residual demand,
    connecting each to the currently-highest-residual b-vertices. The
    result is verified before returning.
    """
    if not is_bigraphic(s):
        raise NotBigraphic(f"not bigraphic: {s.a_degrees} ; {s.b_degrees}")
    residual = list(s.b_degrees)
    rows = [0] * s.m
    order = sorted(range(s.m), key=lambda i: -s.a_degrees[i])
    for a in order:
        d = s.a_degrees[a]
        targets = sorted(range(s.n), key=lambda j: (-residual[j], j))[:d]
        for b in targets:
            if residual[b] <= 0:
                raise NotBigraphic("greedy realization ran out of capacity")
            residual[b] -= 1
            rows[a] |= 1 << b
    g = BipartiteGraph.from_rows(s.m, s.n, rows)
    if degree_sequence_of(g) != s:
        raise NotBigraphic("greedy realization missed the prescribed degrees")
    return g


def kundu_check(degrees: Sequence[int], k: int) -> bool:
    """Kundu's theorem: some realization contains a k-regular subgraph
    iff both the sequence and the sequence minus k are graphic."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return is_graphic(degrees) and is_graphic([d - k for d in degrees])
