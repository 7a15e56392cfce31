"""Realizability tests for graphic and bigraphic degree sequences.

* ``is_graphic``: Erdős–Gallai in one pass over the sorted sequence,
  O(n log n).
* ``is_bigraphic``: Gale–Ryser against the conjugate of the B-degrees,
  O(m log m + n).
* ``realize_bigraphic``: the greedy construction on a bucket queue of
  residual B-degrees, O(m log m + n) plus the buckets each A-vertex
  touches.
* ``kundu_check``: two ``is_graphic`` calls.

All functions are pure; inputs are never mutated (sorting happens on
copies). Graphic sequences are plain lists of non-negative integers.
"""

from __future__ import annotations

from itertools import accumulate
from operator import le
from typing import Sequence

from .graphs import BigraphicSequence, BipartiteGraph, degree_sequence_of


class NotBigraphic(ValueError):
    """Raised by realize_bigraphic when the sequence is not bigraphic."""


def is_graphic(degrees: Sequence[int]) -> bool:
    """Erdős–Gallai test: does some simple graph realize these degrees?

    With d_1 >= ... >= d_n, the sum must be even and, for every k,
    sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k). One pass over the
    sorted sequence: the terms of the tail that are at least k form a
    prefix of it, whose end only moves left as k grows, and the rest is a
    suffix sum. O(n log n) for the sort, O(n) for the pass.
    """
    seq = sorted(degrees, reverse=True)
    if seq and seq[-1] < 0:
        return False
    if sum(seq) % 2:
        return False
    n = len(seq)
    suffix = list(accumulate(reversed(seq), initial=0))[::-1]  # suffix[i] = sum(seq[i:])
    big = n  # seq[:big] are the terms >= k
    prefix = 0
    for k in range(1, n + 1):
        prefix += seq[k - 1]
        while big and seq[big - 1] < k:
            big -= 1
        # tail terms i >= k: min(d_i, k) is k up to index big, then d_i
        split = max(big, k)
        if prefix > k * (k - 1) + k * (split - k) + suffix[split]:
            return False
    return True


def is_bigraphic(s: BigraphicSequence) -> bool:
    """Gale-Ryser test for bipartite realizability.

    Side sums must agree and, with a-degrees sorted descending, every
    prefix must satisfy sum_{i<=k} a_i <= sum_j min(b_j, k). The right side
    is the running sum of at_least[t] = #{j : b_j >= t} over t <= k (the
    conjugate of b), counted once from the b-degrees clipped to m.
    O(m log m + n).
    """
    if s.a_sum != s.b_sum:
        return False
    m = s.m
    counts = [0] * (m + 1)
    for d in s.b_degrees:
        counts[min(d, m)] += 1
    at_least = list(accumulate(reversed(counts)))[::-1]  # at_least[t] = sum(counts[t:])
    caps = accumulate(at_least[1:])
    prefixes = accumulate(sorted(s.a_degrees, reverse=True))
    return all(map(le, prefixes, caps))


def realize_bigraphic(s: BigraphicSequence) -> BipartiteGraph:
    """Build a graph whose degree sequence equals s positionally.

    Greedy construction: process a-vertices in descending demand (ties in
    index order), connecting each to the b-vertices of highest residual
    demand, ties to the lower index. The b-vertices sit in buckets by
    residual, each bucket a list in increasing index order, and only the
    non-empty buckets are kept, lowest residual first. An a-vertex takes
    whole buckets from the top and a prefix of the last one it reaches;
    the taken vertices then move one bucket lower. O(m log m + n + work
    on the touched buckets). The result is verified before returning.
    """
    if not is_bigraphic(s):
        raise NotBigraphic(f"not bigraphic: {s.a_degrees} ; {s.b_degrees}")
    by_residual = {}
    for b, d in enumerate(s.b_degrees):
        if d > 0:
            by_residual.setdefault(d, []).append(b)
    buckets = sorted(by_residual.items())  # (residual, b-vertices), top last
    rows = [0] * s.m
    order = sorted(range(s.m), key=lambda i: -s.a_degrees[i])
    for a in order:
        need = s.a_degrees[a]
        taken = []  # (residual, b-vertices), highest residual first
        while need:
            if not buckets:
                raise NotBigraphic("greedy realization ran out of capacity")
            r, members = buckets[-1]
            if len(members) <= need:
                buckets.pop()
                taken.append((r, members))
                need -= len(members)
            else:
                taken.append((r, members[:need]))
                buckets[-1] = (r, members[need:])
                need = 0
        row = 0
        for r, members in reversed(taken):
            for b in members:
                row |= 1 << b
            _push(buckets, r - 1, members)
        rows[a] = row
    g = BipartiteGraph.from_rows(s.m, s.n, rows)
    if degree_sequence_of(g) != s:
        raise NotBigraphic("greedy realization missed the prescribed degrees")
    return g


def _push(buckets, r, members):
    """File b-vertices of residual r into their bucket, keeping both orders.

    Only the bucket of the remainder an a-vertex left behind can sit above
    r, so the search steps down at most once.
    """
    if r == 0:
        return
    i = len(buckets)
    while i and buckets[i - 1][0] > r:
        i -= 1
    if i and buckets[i - 1][0] == r:
        merged = buckets[i - 1][1] + members
        merged.sort()  # two sorted runs: a linear merge
        buckets[i - 1] = (r, merged)
    else:
        buckets.insert(i, (r, members))


def kundu_check(degrees: Sequence[int], k: int) -> bool:
    """Kundu's theorem: some realization contains a k-regular subgraph
    iff both the sequence and the sequence minus k are graphic."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return is_graphic(degrees) and is_graphic([d - k for d in degrees])
