"""Instance generators: random hosts, star forests, tightness constructions."""

from __future__ import annotations

import math
import random

from .graphs import BipartiteGraph


class ParameterError(ValueError):
    """Generator parameters are out of their feasible region."""


def gen_random_bipartite(n: int, p: float, rng: random.Random) -> BipartiteGraph:
    """Each of the n*n possible edges appears independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    if p == 1.0:
        edges = frozenset((a, b) for a in range(n) for b in range(n))
    else:
        edges = frozenset(
            (a, b)
            for a in range(n)
            for b in range(n)
            if rng.random() < p
        )
    return BipartiteGraph(n, n, edges)


def gen_star_forest(n: int, hub_degrees) -> BipartiteGraph:
    """Union of stars: S-vertex i owns hub_degrees[i] consecutive T-leaves.

    Remaining S-vertices are isolated; every T-vertex ends with degree at
    most 1.
    """
    hub_degrees = list(hub_degrees)
    if len(hub_degrees) > n:
        raise ParameterError("more hubs than S-vertices")
    if any(d < 0 for d in hub_degrees):
        raise ParameterError("hub degrees must be non-negative")
    if sum(hub_degrees) > n:
        raise ParameterError(
            f"total demand {sum(hub_degrees)} exceeds the leaf supply {n}"
        )
    edges = set()
    leaf = 0
    for s, d in enumerate(hub_degrees):
        for _ in range(d):
            edges.add((s, leaf))
            leaf += 1
    return BipartiteGraph(n, n, frozenset(edges))


def gen_condition1_counterexample(n: int) -> BipartiteGraph:
    """Disjoint union of two slightly-unbalanced bicliques with no perfect
    matching: the first n/2+1 A-vertices see only the first n/2-1
    B-vertices, and symmetrically for the rest. Every degree is n/2-1 or
    n/2+1."""
    if n < 4 or n % 2 != 0:
        raise ParameterError("n must be even and at least 4")
    half = n // 2
    edges = set()
    for a in range(half + 1):
        for b in range(half - 1):
            edges.add((a, b))
    for a in range(half + 1, n):
        for b in range(half - 1, n):
            edges.add((a, b))
    return BipartiteGraph(n, n, frozenset(edges))


def condition2_parameters(n: int, c: float) -> tuple:
    """(hub count, hub degree) for the dense-hub construction; raises
    ParameterError when the hubs cannot fit their leaves (the construction
    is asymptotic and its feasible region at small n is nearly empty)."""
    if not (math.isfinite(c) and c > 0):
        raise ParameterError("c must be positive and finite")
    if n < 2:
        raise ParameterError("n must be at least 2")
    log_n = math.log(n)
    if log_n / c > n or c * n / log_n > n:  # also keeps ceil() below finite
        raise ParameterError(f"c = {c} needs more than {n} hubs or leaves per hub")
    hubs = math.ceil(log_n / c)
    hub_degree = math.ceil(c * n / log_n)
    if hubs * hub_degree > n:
        raise ParameterError(
            f"{hubs} hubs of degree {hub_degree} need {hubs * hub_degree} "
            f"leaves, only {n} available"
        )
    return hubs, hub_degree


def gen_condition2_counterexample(
    n: int, c: float, rng: random.Random, p: float = 0.55
) -> tuple:
    """(host, target) showing the hub-degree cap is needed: a random host
    with p > 0.5 and a star forest of few very-high-degree hubs."""
    if p <= 0.5:
        raise ParameterError("host density p must exceed 0.5")
    hubs, hub_degree = condition2_parameters(n, c)
    host = gen_random_bipartite(n, p, rng)
    target = gen_star_forest(n, [hub_degree] * hubs)
    return host, target
