"""Randomized pipeline embedding a star forest into a dense bipartite host.

Pipeline per attempt: band-partition the hub side by degree, map the bands
to random contiguous blocks of the host's A-side, satisfy small bands
greedily from unused B-neighbors, split the remaining B-vertices into
random blocks matched to the large bands, and solve each (band, block)
pair exactly as a b-matching (every leaf takes one hub, each hub its
degree) by augmenting paths on the host's rows. Any stuck phase
triggers a rerandomized retry; a returned embedding is always verified
first.

Strict mode enforces the theorem hypotheses (whose hub-degree cap
eps^4 n / (100 log n) is below 1 for any n reachable on a desk, so it only
admits degenerate targets); relaxed mode swaps in a user-supplied cap and
keeps the mechanics identical.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace
from typing import Optional

from .conditions import degree_cap, theorem1_conditions
from .flow import Infeasible, capacitated_matching
from .graphs import (
    BipartiteGraph,
    EmbeddingMap,
    complete_injection,
    set_bits,
    verify_embedding,
)

logger = logging.getLogger(__name__)

STRICT = "strict"
RELAXED = "relaxed"


class CapViolation(ValueError):
    """An S-degree exceeds the partition cap."""


class BadTarget(ValueError):
    """The target is not a star forest (some T-degree exceeds 1)."""


class InsufficientB(ValueError):
    """Large-band demands exceed the unused B-vertices."""


class GreedyStuck(Exception):
    """A small-band vertex's image has fewer unused neighbors than needed."""

    def __init__(self, vertex: int, have: int, need: int):
        super().__init__(f"vertex {vertex}: {have} unused neighbors, need {need}")
        self.vertex = vertex
        self.have = have
        self.need = need


class GreedyBudgetExceeded(RuntimeError):
    """Strict-mode invariant: small bands consumed more than eps*n/4 of B."""


@dataclass(frozen=True)
class EmbedConfig:
    eps: float
    mode: str = RELAXED
    cap_override: Optional[float] = None
    retries: int = 5
    seed: int = 0
    log_base: float = math.e

    def __post_init__(self):
        if not 0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        if self.mode not in (STRICT, RELAXED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == STRICT and self.cap_override is not None:
            raise ValueError("cap_override is a relaxed-mode knob")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.cap_override is not None and not math.isfinite(self.cap_override):
            raise ValueError("cap must be finite")
        if not math.isfinite(self.log_base) or self.log_base <= 1:
            raise ValueError("log base must be finite and exceed 1")

    @property
    def delta(self) -> float:
        return self.eps / 10


@dataclass(frozen=True)
class PartitionPlan:
    """Degree-band partition of the hub side.

    classes[0] holds the isolated S-vertices; classes[1:] are the non-empty
    bands in increasing band order, and bands[j] is the band index of
    classes[j] (bands[0] = 0): every vertex u in classes[j], j >= 1, has
    cap/(1+delta)^i < d(u) <= cap/(1+delta)^(i-1) with i = bands[j].
    """

    eps: float
    delta: float
    cap: float
    classes: tuple
    bands: tuple


@dataclass(frozen=True)
class PairAssignment:
    """Large bands paired with random B-blocks of matching total demand."""

    pairs: tuple  # ((d_vertices, e_vertices), ...) in band-index order


@dataclass(frozen=True)
class EmbedFailure:
    phase: str  # "conditions" | "greedy" | "pairs"
    pair_index: Optional[int] = None
    deficit: Optional[int] = None
    attempts: int = 0
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase,
            "pairIndex": self.pair_index,
            "deficit": self.deficit,
            "attempts": self.attempts,
            "notes": self.notes,
        }


def band_index(degree: int, cap: float, delta: float) -> int:
    """Smallest i >= 1 with cap/(1+delta)^i < degree.

    A logarithm gives the estimate; the exact inequality then moves it to
    the answer, by at most a step either way.
    """
    if degree <= 0:
        raise ValueError("band index is defined for positive degrees")
    if 1 + delta == 1:
        raise ValueError("delta is too small for the bands to shrink")

    def above(i):  # degree <= cap/(1+delta)^i
        try:
            return degree <= cap / (1 + delta) ** i
        except OverflowError:  # (1+delta)^i left the float range: the quotient is 0
            return False

    i = 1
    if cap > degree:
        i = max(1, math.floor(math.log(cap / degree) / math.log(1 + delta)) + 1)
    while i > 1 and not above(i - 1):
        i -= 1
    while above(i):
        i += 1
    return i


def _leaf_cover(target: BipartiteGraph) -> Optional[int]:
    """Mask of the T-vertices the target uses, or None when two S-vertices
    share one (some T-degree is 2 or more)."""
    cover = 0
    for row in target.rows:
        if cover & row:
            return None
        cover |= row
    return cover


def partition_degree_classes(
    target: BipartiteGraph, cfg: EmbedConfig
) -> PartitionPlan:
    """Partition the S-side into degree bands below the cap.

    Raises BadTarget unless every T-degree is at most 1 (exactly 1 in
    strict mode), and CapViolation for an S-degree above the cap.
    """
    n = target.n
    cover = _leaf_cover(target)
    if cfg.mode == STRICT:
        if cover != (1 << n) - 1:
            raise BadTarget("strict mode requires every T-degree to equal 1")
        cap = degree_cap(cfg.eps, n, cfg.log_base)
    else:
        if cover is None:
            raise BadTarget("some T-degree exceeds 1")
        if cfg.cap_override is None:
            raise ValueError("relaxed mode needs cap_override")
        cap = cfg.cap_override
    delta = cfg.delta
    isolated = []
    bands = {}
    for v, d in enumerate(target.a_degrees):
        if d == 0:
            isolated.append(v)
            continue
        if (cfg.mode == STRICT and d >= cap) or d > cap:
            raise CapViolation(f"S-vertex {v} has degree {d}, cap {cap}")
        bands.setdefault(band_index(d, cap, delta), []).append(v)
    order = sorted(bands)
    classes = (tuple(isolated),) + tuple(tuple(bands[i]) for i in order)
    return PartitionPlan(cfg.eps, delta, cap, classes, (0, *order))


def is_small_class(size: int, eps: float, n: int, log_base: float = math.e) -> bool:
    """A band is small when its size is at most (16/eps^2) * log n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return size <= (16.0 / eps**2) * (math.log(n) / math.log(log_base))


def blocks_from_permutation(plan: PartitionPlan, perm) -> tuple:
    """Contiguous A-blocks per band along a permutation of A.

    Bands 1..k take consecutive slices in order; band 0 (isolated vertices)
    takes the final slice.
    """
    m = len(perm)
    blocks = [None] * len(plan.classes)
    offset = 0
    for i in range(1, len(plan.classes)):
        size = len(plan.classes[i])
        blocks[i] = tuple(perm[offset : offset + size])
        offset += size
    blocks[0] = tuple(perm[m - len(plan.classes[0]) :]) if plan.classes[0] else ()
    return tuple(blocks)


def images_from_blocks(plan: PartitionPlan, blocks) -> dict:
    """S-vertex -> A-vertex map induced by the block assignment."""
    s_to_a = {}
    for cls, block in zip(plan.classes, blocks):
        for v, a in zip(cls, block):
            s_to_a[v] = a
    return s_to_a


def greedy_embed_small(
    host: BipartiteGraph,
    target: BipartiteGraph,
    plan: PartitionPlan,
    small_classes,
    s_to_a: dict,
    rng: random.Random,
):
    """Satisfy the small bands by picking random unused B-neighbors.

    Returns (edges, t_to_b assignments, used B set); raises GreedyStuck
    when some image runs out of unused neighbors.
    """
    used = 0  # mask of the B-vertices taken so far
    edges = set()
    t_assign = {}
    for i in small_classes:
        for v in plan.classes[i]:
            a = s_to_a[v]
            leaves = set_bits(target.rows[v])
            candidates = set_bits(host.rows[a] & ~used)
            if len(candidates) < len(leaves):
                raise GreedyStuck(v, len(candidates), len(leaves))
            chosen = rng.sample(candidates, len(leaves))
            for t, b in zip(leaves, chosen):
                t_assign[t] = b
                edges.add((a, b))
                used |= 1 << b
    return frozenset(edges), t_assign, frozenset(set_bits(used))


def assign_blocks_and_pairs(
    host: BipartiteGraph,
    target: BipartiteGraph,
    plan: PartitionPlan,
    rng: random.Random,
    used_by_greedy=frozenset(),
    small_classes=(),
) -> PairAssignment:
    """(D_i, E_i) pairs for the large bands.

    E_i blocks are disjoint random subsets of the B-vertices unused after
    the greedy phase, sized exactly to each band's total demand.
    """
    small = set(small_classes)
    large = [
        i
        for i in range(1, len(plan.classes))
        if plan.classes[i] and i not in small
    ]
    unused = [b for b in range(host.n) if b not in used_by_greedy]
    degrees = target.a_degrees
    demand_total = sum(degrees[v] for i in large for v in plan.classes[i])
    if demand_total > len(unused):
        raise InsufficientB(
            f"large bands demand {demand_total} B-vertices, {len(unused)} unused"
        )
    rng.shuffle(unused)
    pairs = []
    offset = 0
    for i in large:
        size = sum(degrees[v] for v in plan.classes[i])
        pairs.append((plan.classes[i], tuple(unused[offset : offset + size])))
        offset += size
    return PairAssignment(tuple(pairs))


def embed_pair(host: BipartiteGraph, d_images, demands, e_block):
    """Exact embedding of one band into its B-block as a b-matching.

    d_images are the A-images of the band's vertices, demands their target
    degrees, e_block the B-vertices available (each to be used exactly
    once). Returns a tuple of host edges in global coordinates, hub by hub
    in d_images order with demands[i] edges for hub i, or Infeasible whose
    deficit is the total demand minus the maximum b-matching.
    """
    total = sum(demands)
    if total != len(e_block):
        return Infeasible(abs(total - len(e_block)), reason="side-sums")
    e_mask = 0
    for b in e_block:
        e_mask |= 1 << b
    rows = host.rows
    neighbours = [set_bits(rows[a] & e_mask) for a in d_images]
    assigned, deficit = capacitated_matching(neighbours, demands)
    if deficit:
        return Infeasible(deficit)
    return tuple((a, b) for a, hit in zip(d_images, assigned) for b in hit)


def azuma_bound(eps: float, z: int) -> float:
    """Per-vertex bad-event probability bound exp(-eps^2 * z / 8)."""
    if z < 1:
        raise ValueError("z must be at least 1")
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    return math.exp(-(eps**2) * z / 8.0)


def empirical_bad_frequency(
    eps: float,
    z: int,
    universe: int = 1000,
    trials: int = 10000,
    seed: int = 0,
) -> float:
    """Monte Carlo counterpart of azuma_bound.

    A vertex with neighbor density exactly (1/2 + 3*eps/4) in a universe of
    A-vertices receives a uniformly random z-subset; it is bad when fewer
    than (1/2 + eps/2) * z of the drawn vertices are neighbors. Returns the
    empirical bad frequency over the trials.
    """
    good = (0.5 + 0.75 * eps) * universe
    if abs(good - round(good)) > 1e-9:
        raise ValueError("universe size does not give an exact density")
    good = round(good)
    threshold = (0.5 + eps / 2) * z
    rng = random.Random(seed)
    population = range(universe)
    bad = 0
    for _ in range(trials):
        hits = sum(1 for v in rng.sample(population, z) if v < good)
        if hits < threshold:
            bad += 1
    return bad / trials


def embed(host: BipartiteGraph, target: BipartiteGraph, cfg: EmbedConfig):
    """Run the full randomized pipeline; Las-Vegas with bounded retries.

    Returns a verified EmbeddingMap on success, otherwise an EmbedFailure
    describing the last failing phase. Deterministic for a fixed seed.
    """
    if host.m != host.n or target.m != target.n or host.n != target.n:
        raise ValueError("host and target must be n x n with the same n")
    n = host.n
    if cfg.mode == STRICT:
        report = theorem1_conditions(host, target, cfg.eps, cfg.log_base)
        if not report.applies:
            return EmbedFailure("conditions", notes=str(report.terms))
        logger.warning(
            "strict mode checks the finite hypotheses only; the guarantee "
            "itself holds for sufficiently large n (threshold unspecified)"
        )
    try:
        plan = partition_degree_classes(target, cfg)
    except BadTarget as exc:  # some T-degree exceeds 1: no star forest
        return EmbedFailure("conditions", notes=str(exc))
    small = [
        i
        for i in range(1, len(plan.classes))
        if plan.classes[i]
        and is_small_class(len(plan.classes[i]), cfg.eps, n, cfg.log_base)
    ]
    degrees = target.a_degrees
    rng = random.Random(cfg.seed)
    last_failure = EmbedFailure("greedy")
    for attempt in range(cfg.retries + 1):
        perm = rng.sample(range(n), n)
        s_to_a = images_from_blocks(plan, blocks_from_permutation(plan, perm))
        try:
            greedy_edges, t_assign, used = greedy_embed_small(
                host, target, plan, small, s_to_a, rng
            )
        except GreedyStuck as stuck:
            last_failure = EmbedFailure(
                "greedy", deficit=stuck.need - stuck.have, attempts=attempt + 1
            )
            continue
        if len(used) > cfg.eps * n / 4:
            if cfg.mode == STRICT:
                raise GreedyBudgetExceeded(
                    f"small bands consumed {len(used)} > eps*n/4 B-vertices"
                )
            logger.debug(
                "small bands consumed %d B-vertices (eps*n/4 = %.2f)",
                len(used),
                cfg.eps * n / 4,
            )
        assignment = assign_blocks_and_pairs(
            host, target, plan, rng, used_by_greedy=used, small_classes=small
        )
        pair_edges = set()
        failed = None
        for idx, (d_vertices, e_block) in enumerate(assignment.pairs):
            d_images = [s_to_a[v] for v in d_vertices]
            demands = [degrees[v] for v in d_vertices]
            result = embed_pair(host, d_images, demands, e_block)
            if isinstance(result, Infeasible):
                failed = EmbedFailure(
                    "pairs", pair_index=idx, deficit=result.deficit,
                    attempts=attempt + 1,
                )
                break
            pair_edges.update(result)
            offset = 0
            for v, need in zip(d_vertices, demands):
                hit = sorted(b for _, b in result[offset : offset + need])
                offset += need
                for t, b in zip(set_bits(target.rows[v]), hit):
                    t_assign[t] = b
        if failed is not None:
            last_failure = failed
            continue
        emb = EmbeddingMap(
            tuple(s_to_a[v] for v in range(n)),
            complete_injection(t_assign, n, n),
            frozenset(greedy_edges) | pair_edges,
        )
        if not verify_embedding(host, target, emb):
            raise AssertionError("pipeline produced an invalid embedding")
        return emb
    return replace(last_failure, attempts=cfg.retries + 1)
