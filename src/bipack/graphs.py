"""Core bipartite graph and degree-sequence types.

Vertex identity is positional: A-side vertices are 0..m-1, B-side vertices
are 0..n-1, and an edge is an (a, b) index pair. Sequences are never
auto-sorted; checkers that need sortedness sort copies internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable


class DimensionMismatch(ValueError):
    """Raised when maps or sequences do not match the graph dimensions."""


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple bipartite graph on vertex classes of sizes m and n."""

    m: int
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("class sizes must be non-negative")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for a, b in self.edges:
            if not (0 <= a < self.m and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for {self.m}x{self.n}")

    @cached_property
    def a_adj(self) -> tuple:
        """Neighbor sets of A-side vertices, indexed by a."""
        adj = [set() for _ in range(self.m)]
        for a, b in self.edges:
            adj[a].add(b)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def b_adj(self) -> tuple:
        adj = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    @property
    def a_degrees(self) -> list:
        return [len(s) for s in self.a_adj]

    @property
    def b_degrees(self) -> list:
        return [len(s) for s in self.b_adj]

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges

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
    edges = frozenset(
        (a, b) for a in range(g.m) for b in range(g.n) if (a, b) not in g.edges
    )
    return BipartiteGraph(g.m, g.n, edges)


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
    if not emb.edge_image <= host.edges:
        return False
    if len(emb.edge_image) != len(target.edges):
        return False
    for s, t in target.edges:
        if (emb.s_to_a[s], emb.t_to_b[t]) not in emb.edge_image:
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
    m, n = int(tokens[0]), int(tokens[1])
    rest = tokens[2:]
    if len(rest) % 2 != 0:
        raise ValueError("dangling edge endpoint in graph text")
    edges = frozenset(
        (int(rest[i]), int(rest[i + 1])) for i in range(0, len(rest), 2)
    )
    duplicates = len(rest) // 2 - len(edges)
    if duplicates:
        raise ValueError(f"graph text lists {duplicates} duplicate edge line(s)")
    return BipartiteGraph(m, n, edges)


def format_graph(g: BipartiteGraph) -> str:
    lines = [f"{g.m} {g.n}"]
    lines.extend(f"{a} {b}" for a, b in sorted(g.edges))
    return "\n".join(lines) + "\n"


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
