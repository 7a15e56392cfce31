"""Core bipartite graph and degree-sequence types.

Vertex identity is positional: A-side vertices are 0..m-1, B-side vertices
are 0..n-1, and an edge is an (a, b) index pair. A graph's canonical state
is ``rows``: one int per A-vertex whose bit b is set exactly when (a, b) is
an edge. Neighbourhoods, degrees and edge tests are mask arithmetic on the
rows; ``edges``, ``a_adj`` and ``b_adj`` are views built from the rows on
first use, for the file format, the oracles and callers that want sets.
Sequences are never auto-sorted; checkers that need sortedness sort copies
internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Iterable

# Largest class size: a rows tuple this long takes 4 MB, and every
# per-vertex structure is allocated only after this check.
MAX_SIDE = 1 << 19

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class DimensionMismatch(ValueError):
    """Raised when maps or sequences do not match the graph dimensions."""


def set_bits(mask: int) -> list:
    """Positions of the set bits of a non-negative mask, in increasing order."""
    if mask.bit_count() * 8 <= mask.bit_length():
        # Few bits: step from one to the next instead of scanning the row.
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)))


def check_sides(m: int, n: int) -> None:
    """Raise ValueError unless 0 <= m, n <= MAX_SIDE."""
    if m < 0 or n < 0:
        raise ValueError("class sizes must be non-negative")
    if m > MAX_SIDE or n > MAX_SIDE:
        raise ValueError(f"class sizes {m}x{n} exceed the limit {MAX_SIDE}")


@dataclass(frozen=True, init=False)
class BipartiteGraph:
    """A simple bipartite graph on vertex classes of sizes m and n.

    ``BipartiteGraph(m, n, edges)`` builds the rows from (a, b) pairs;
    ``BipartiteGraph.from_rows(m, n, rows)`` takes them as they are.
    """

    m: int
    n: int
    rows: tuple

    def __init__(self, m: int, n: int, edges: Iterable = ()):
        check_sides(m, n)
        rows = [0] * m
        for a, b in edges:
            if not (0 <= a < m and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for {m}x{n}")
            rows[a] |= 1 << b
        self._set(m, n, tuple(rows))

    @classmethod
    def from_rows(cls, m: int, n: int, rows: Iterable) -> "BipartiteGraph":
        rows = tuple(rows)
        check_sides(m, n)
        if len(rows) != m:
            raise ValueError(f"{len(rows)} rows for {m} A-vertices")
        limit = 1 << n
        if not all(0 <= row < limit for row in rows):
            raise ValueError(f"a row has bits outside range({n})")
        g = cls.__new__(cls)
        g._set(m, n, rows)
        return g

    def _set(self, m, n, rows):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def edges(self) -> frozenset:
        """The (a, b) edge pairs."""
        return frozenset(
            (a, b) for a, row in enumerate(self.rows) for b in set_bits(row)
        )

    @cached_property
    def a_adj(self) -> tuple:
        """Neighbor sets of A-side vertices, indexed by a."""
        return tuple(frozenset(set_bits(row)) for row in self.rows)

    @cached_property
    def b_adj(self) -> tuple:
        adj = [[] for _ in range(self.n)]
        for a, row in enumerate(self.rows):
            for b in set_bits(row):
                adj[b].append(a)
        return tuple(map(frozenset, adj))

    @property
    def a_degrees(self) -> list:
        return [row.bit_count() for row in self.rows]

    @property
    def b_degrees(self) -> list:
        """Column sums of the rows, without building ``b_adj``.

        Every column's count is a binary counter held in bit planes: bit b
        of ``planes[i]`` is bit i of column b's count. Adding a row is a
        ripple-carry addition on whole rows, O(log m) mask operations.
        """
        planes = []
        for row in self.rows:
            i = 0
            while row:
                if i == len(planes):
                    planes.append(row)
                    break
                planes[i], row = planes[i] ^ row, planes[i] & row
                i += 1
        counts = [0] * self.n
        for i, plane in enumerate(planes):
            for b in set_bits(plane):
                counts[b] += 1 << i
        return counts

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.m and 0 <= b < self.n and bool(self.rows[a] >> b & 1)

    def min_degree(self) -> int:
        degs = self.a_degrees + self.b_degrees
        return min(degs) if degs else 0


@dataclass(frozen=True)
class BigraphicSequence:
    """A pair of prescribed degree lists, one per vertex class.

    Realizability (equal side sums, Gale-Ryser) is a query on this data,
    not an invariant of it.
    """

    a_degrees: tuple
    b_degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_degrees", tuple(self.a_degrees))
        object.__setattr__(self, "b_degrees", tuple(self.b_degrees))
        if any(d < 0 for d in self.a_degrees + self.b_degrees):
            raise ValueError("degrees must be non-negative")

    @property
    def m(self) -> int:
        return len(self.a_degrees)

    @property
    def n(self) -> int:
        return len(self.b_degrees)

    @property
    def a_sum(self) -> int:
        return sum(self.a_degrees)

    @property
    def b_sum(self) -> int:
        return sum(self.b_degrees)


@dataclass(frozen=True)
class EmbeddingMap:
    """Witness that a target graph sits inside a host graph.

    ``s_to_a[s]`` is the A-image of target S-vertex s; ``t_to_b[t]`` the
    B-image of T-vertex t; ``edge_image`` the host edges used.
    """

    s_to_a: tuple
    t_to_b: tuple
    edge_image: frozenset

    def __post_init__(self):
        object.__setattr__(self, "s_to_a", tuple(self.s_to_a))
        object.__setattr__(self, "t_to_b", tuple(self.t_to_b))
        object.__setattr__(self, "edge_image", frozenset(self.edge_image))

    def to_json_dict(self) -> dict:
        return {
            "sToA": list(self.s_to_a),
            "tToB": list(self.t_to_b),
            "edges": sorted([a, b] for a, b in self.edge_image),
        }


@dataclass(frozen=True)
class PackingWitness:
    """Two edge-disjoint edge sets inside K_{m,n}."""

    g1_edges: frozenset
    g2_edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "g1_edges", frozenset(self.g1_edges))
        object.__setattr__(self, "g2_edges", frozenset(self.g2_edges))


def complete_injection(partial: dict, size: int, codomain: int) -> tuple:
    """Extend an injective map on part of range(size) to all of it.

    Unmapped keys, in increasing order, take the values of range(codomain)
    that partial leaves unused, in increasing order.
    """
    taken = set(partial.values())
    free = (v for v in range(codomain) if v not in taken)
    return tuple(partial[k] if k in partial else next(free) for k in range(size))


def degree_sequence_of(g: BipartiteGraph) -> BigraphicSequence:
    """Per-vertex degrees of both sides, in index order."""
    return BigraphicSequence(tuple(g.a_degrees), tuple(g.b_degrees))


def complement_in_biclique(g: BipartiteGraph) -> BipartiteGraph:
    """K_{m,n} minus g's edges."""
    full = (1 << g.n) - 1
    return BipartiteGraph.from_rows(g.m, g.n, (full ^ row for row in g.rows))


def verify_embedding(
    host: BipartiteGraph, target: BipartiteGraph, emb: EmbeddingMap
) -> bool:
    """Check an EmbeddingMap certificate against host and target.

    Returns False on a violated invariant (injectivity, missing host edge,
    wrong edge count). Mismatched dimensions raise DimensionMismatch.
    """
    if len(emb.s_to_a) != target.m or len(emb.t_to_b) != target.n:
        raise DimensionMismatch(
            f"map sizes ({len(emb.s_to_a)},{len(emb.t_to_b)}) do not match "
            f"target ({target.m},{target.n})"
        )
    if any(not 0 <= a < host.m for a in emb.s_to_a):
        raise DimensionMismatch("S-image out of host A-range")
    if any(not 0 <= b < host.n for b in emb.t_to_b):
        raise DimensionMismatch("T-image out of host B-range")
    if len(set(emb.s_to_a)) != len(emb.s_to_a):
        return False
    if len(set(emb.t_to_b)) != len(emb.t_to_b):
        return False
    if not all(host.has_edge(a, b) for a, b in emb.edge_image):
        return False
    if len(emb.edge_image) != sum(target.a_degrees):
        return False
    for s, row in enumerate(target.rows):
        if row:
            a = emb.s_to_a[s]
            if any((a, emb.t_to_b[t]) not in emb.edge_image for t in set_bits(row)):
                return False
    return True


def _edge_degrees(edges: Iterable, m: int, n: int):
    da = [0] * m
    db = [0] * n
    for a, b in edges:
        if not (0 <= a < m and 0 <= b < n):
            return None
        da[a] += 1
        db[b] += 1
    return da, db


def verify_packing(
    w: PackingWitness, seq1: BigraphicSequence, seq2: BigraphicSequence
) -> bool:
    """Check a packing witness under unordered semantics.

    The two edge sets must be disjoint, fit in the m x n grid, and realize
    their sequences up to vertex permutation within each class (multiset
    equality of per-side degree sequences).
    """
    if (seq1.m, seq1.n) != (seq2.m, seq2.n):
        raise DimensionMismatch("sequence shapes differ")
    m, n = seq1.m, seq1.n
    if w.g1_edges & w.g2_edges:
        return False
    for edges, seq in ((w.g1_edges, seq1), (w.g2_edges, seq2)):
        degs = _edge_degrees(edges, m, n)
        if degs is None:
            return False
        da, db = degs
        if sorted(da) != sorted(seq.a_degrees) or sorted(db) != sorted(seq.b_degrees):
            return False
    return True


# ---------------------------------------------------------------------------
# Text formats.
#
# Graph: first line "m n", then one "a b" line per edge (0-based).
# Sequence: first line "m n", second line m integers, third line n integers.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> BipartiteGraph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("graph text needs at least 'm n'")
    if len(tokens) % 2 != 0:
        raise ValueError("dangling edge endpoint in graph text")
    values = list(map(int, tokens))
    g = BipartiteGraph(values[0], values[1], zip(values[2::2], values[3::2]))
    duplicates = len(values) // 2 - 1 - sum(g.a_degrees)
    if duplicates:
        raise ValueError(f"graph text lists {duplicates} duplicate edge line(s)")
    return g


def format_graph(g: BipartiteGraph) -> str:
    """Header line, then one "a b" line per edge in increasing (a, b) order."""
    names = [f"{b}\n" for b in range(g.n)]
    parts = [f"{g.m} {g.n}\n"]
    for a, row in enumerate(g.rows):
        if row:
            head = f"{a} "
            parts.append(head + head.join([names[b] for b in set_bits(row)]))
    return "".join(parts)


def parse_sequence(text: str) -> BigraphicSequence:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("sequence text needs at least 'm n'")
    m, n = int(tokens[0]), int(tokens[1])
    if m < 0 or n < 0:
        raise ValueError("class sizes must be non-negative")
    vals = [int(t) for t in tokens[2:]]
    if len(vals) != m + n:
        raise ValueError(f"expected {m}+{n} degrees, got {len(vals)}")
    return BigraphicSequence(tuple(vals[:m]), tuple(vals[m:]))


def format_sequence(s: BigraphicSequence) -> str:
    return "{} {}\n{}\n{}\n".format(
        s.m,
        s.n,
        " ".join(map(str, s.a_degrees)),
        " ".join(map(str, s.b_degrees)),
    )
