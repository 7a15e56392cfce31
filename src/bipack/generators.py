"""Instance generators: random hosts, star forests, tightness constructions."""

from __future__ import annotations

import math
import random

from .graphs import BipartiteGraph, check_sides

# Maps the 0/1 bytes of a row's coin flips to the digits int(..., 2) reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class ParameterError(ValueError):
    """Generator parameters are out of their feasible region."""


def gen_random_bipartite(n: int, p: float, rng: random.Random) -> BipartiteGraph:
    """Each of the n*n possible edges appears independently with probability p.

    Edge (a, b) is present when the (a*n + b)-th rng.random() draw is below
    p (no draws at p = 1); each row is built whole from its n draws.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    check_sides(n, n)
    if p == 1.0:
        rows = [(1 << n) - 1] * n
    else:
        draw = rng.random
        cols = range(n)
        rows = [
            int(bytes([draw() < p for _ in cols])[::-1].translate(_DIGITS), 2)
            for _ in cols
        ]
    return BipartiteGraph.from_rows(n, n, rows)


def gen_star_forest(n: int, hub_degrees) -> BipartiteGraph:
    """Union of stars: S-vertex i owns hub_degrees[i] consecutive T-leaves.

    Remaining S-vertices are isolated; every T-vertex ends with degree at
    most 1.
    """
    check_sides(n, n)
    hub_degrees = list(hub_degrees)
    if len(hub_degrees) > n:
        raise ParameterError("more hubs than S-vertices")
    if any(d < 0 for d in hub_degrees):
        raise ParameterError("hub degrees must be non-negative")
    if sum(hub_degrees) > n:
        raise ParameterError(
            f"total demand {sum(hub_degrees)} exceeds the leaf supply {n}"
        )
    rows = [0] * n
    leaf = 0
    for s, d in enumerate(hub_degrees):
        rows[s] = ((1 << d) - 1) << leaf
        leaf += d
    return BipartiteGraph.from_rows(n, n, rows)


def gen_condition1_counterexample(n: int) -> BipartiteGraph:
    """Disjoint union of two slightly-unbalanced bicliques with no perfect
    matching: the first n/2+1 A-vertices see only the first n/2-1
    B-vertices, and symmetrically for the rest. Every degree is n/2-1 or
    n/2+1."""
    if n < 4 or n % 2 != 0:
        raise ParameterError("n must be even and at least 4")
    check_sides(n, n)
    half = n // 2
    low = (1 << (half - 1)) - 1  # B-vertices 0..half-2
    high = ((1 << n) - 1) ^ low
    return BipartiteGraph.from_rows(n, n, [low] * (half + 1) + [high] * (n - half - 1))


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
