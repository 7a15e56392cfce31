"""Fixed-order embedding feasibility: subset condition, flow and b-matching.

Three routes decide whether demands can be met by a subgraph of a host:

* ``lemma4_check_exhaustive`` enumerates the subset inequalities
  pi(X) <= e(X, Y) + pi(complement Y) over both orientations and reports
  the worst violation, if any.
* ``fixed_order_embed`` builds a degree-constrained subgraph for general
  demands through an integral maximum flow (Dinic) and returns the
  selected edges.
* ``capacitated_matching`` handles the special case where every leaf-side
  demand is 1 (a b-matching): a greedy seed, then breadth-first augmenting
  paths, on the hubs' neighbour lists with no network built.

On instances with equal side sums the subset family in the A-orientation
already characterizes feasibility; the mirrored B-orientation is checked
as well so the predicate also agrees with the flow route when side sums
differ (where no subgraph can exist).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graphs import BigraphicSequence, BipartiteGraph, DimensionMismatch


class SizeTooLarge(ValueError):
    """Instance exceeds the exhaustive enumeration budget."""


@dataclass(frozen=True)
class Lemma4Violation:
    """A violated subset inequality: lhs = pi(X) exceeds rhs = e(X,Y) + pi(~Y).

    ``side`` is "A" for the stated orientation (X in A, Y in B) and "B" for
    the mirrored one (X in B, Y in A).
    """

    x: tuple
    y: tuple
    lhs: int
    rhs: int
    side: str = "A"

    @property
    def deficiency(self) -> int:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class Infeasible:
    """Negative embedding result carrying the unmet demand."""

    deficit: int
    reason: str = "flow"


@dataclass
class FlowNetwork:
    """Directed network with integer capacities for max-flow runs."""

    node_count: int
    source: int
    sink: int
    _to: list = field(default_factory=list)
    _cap: list = field(default_factory=list)
    _adj: list = field(default_factory=list)

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not self._adj:
            self._adj = [[] for _ in range(self.node_count)]

    def add_arc(self, u: int, v: int, cap: int) -> int:
        """Add arc u->v with the given capacity; returns the arc id."""
        if cap < 0:
            raise ValueError("capacities must be non-negative")
        arc_id = len(self._to)
        self._to.extend((v, u))
        self._cap.extend((cap, 0))
        self._adj[u].append(arc_id)
        self._adj[v].append(arc_id + 1)
        return arc_id

    def arc_flow(self, arc_id: int) -> int:
        """Flow on a forward arc (residual on its reverse twin)."""
        return self._cap[arc_id ^ 1]


def max_flow(net: FlowNetwork) -> int:
    """Dinic's algorithm; mutates net's residual capacities in place.

    Returns the maximum integral s-t flow value; per-arc flows are then
    available through ``net.arc_flow``. The blocking-flow search keeps its
    current path on an explicit stack, so the depth of the level graph is
    not limited by the interpreter's recursion limit.
    """
    to, cap, adj = net._to, net._cap, net._adj
    s, t = net.source, net.sink
    total = 0
    while True:
        level = [-1] * net.node_count
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total
        ptr = [0] * net.node_count
        path = []  # arc ids from s to the current node u
        u = s
        while True:
            if u == t:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                total += pushed
                path.clear()
                u = s
                continue
            arcs = adj[u]
            while ptr[u] < len(arcs):
                e = arcs[ptr[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    break
                ptr[u] += 1
            else:
                if u == s:
                    break
                # Dead end: retreat one arc and skip it from its tail.
                u = to[path.pop() ^ 1]
                ptr[u] += 1
                continue
            path.append(e)
            u = to[e]


def capacitated_matching(neighbours, demands):
    """Maximum b-matching of hubs to leaves.

    Hub i may take up to demands[i] distinct leaves from neighbours[i] (an
    iterable of hashable leaf ids that can be traversed repeatedly); each
    leaf goes to at most one hub. A greedy pass seeds the matching, then
    each hub still short of its demand grows it by breadth-first augmenting
    paths (Hopcroft & Karp's shortest paths, one search at a time) kept in
    explicit parent maps, so no search recurses.

    Returns (assigned, deficit): assigned[i] lists the leaves hub i got, and
    deficit is sum(demands) minus the size of the maximum matching.
    """
    k = len(demands)
    owner = {}  # leaf -> hub
    load = [0] * k
    for h in range(k):
        need = demands[h]
        if need <= 0:
            continue
        got = 0
        for leaf in neighbours[h]:
            if leaf not in owner:
                owner[leaf] = h
                got += 1
                if got == need:
                    break
        load[h] = got
    # A search that fails reaches a closed set: every leaf it sees is owned
    # by a hub it also expanded. No later augmenting path can enter that set
    # and leave it again, so its hubs are never expanded again.
    dead_hubs = set()
    for r in range(k):
        while load[r] < demands[r] and r not in dead_hubs:
            via = {r: None}  # hub -> the owned leaf it was reached through
            parent = {}  # leaf -> hub it was reached from
            queue = [r]
            free = None
            for h in queue:
                for leaf in neighbours[h]:
                    if leaf in parent:
                        continue
                    parent[leaf] = h
                    w = owner.get(leaf)
                    if w is None:
                        free = leaf
                        break
                    if w not in via and w not in dead_hubs:
                        via[w] = leaf
                        queue.append(w)
                if free is not None:
                    break
            if free is None:
                dead_hubs.update(via)
                break
            # Shift each leaf on the path to the hub that reached it.
            leaf = free
            while leaf is not None:
                h = parent[leaf]
                owner[leaf] = h
                leaf = via[h]
            load[r] += 1
    assigned = [[] for _ in range(k)]
    for leaf, h in owner.items():
        assigned[h].append(leaf)
    return assigned, sum(demands) - len(owner)


def _best_violation_for_side(a_demands, b_demands, nbr_masks, m, n):
    """Worst (X, Y) violation with X on the side of a_demands.

    For fixed X the optimal Y keeps b exactly when e(X,{b}) < pi(b), so the
    best deficiency is pi(X) - sum_b min(e_b, pi_b); Y itself is
    reconstructed afterwards for the winning X only.
    """
    best = None  # (deficiency, x_tuple, x_mask)
    for x_mask in range(1 << m):
        pi_x = 0
        mm = x_mask
        while mm:
            low = mm & -mm
            pi_x += a_demands[low.bit_length() - 1]
            mm ^= low
        bound = pi_x
        for b in range(n):
            e_b = (nbr_masks[b] & x_mask).bit_count()
            bound -= min(e_b, b_demands[b])
        if bound <= 0:
            continue
        x_tuple = tuple(i for i in range(m) if x_mask >> i & 1)
        if best is None or bound > best[0] or (bound == best[0] and x_tuple < best[1]):
            best = (bound, x_tuple, x_mask)
    if best is None:
        return None
    deficiency, x_tuple, x_mask = best
    # Lexicographically smallest Y among the maximizers for this X.
    e = [(nbr_masks[b] & x_mask).bit_count() for b in range(n)]
    best_y = None
    for y_mask in range(1 << n):
        rhs = sum(e[b] if y_mask >> b & 1 else b_demands[b] for b in range(n))
        if sum(a_demands[i] for i in x_tuple) - rhs != deficiency:
            continue
        y_tuple = tuple(b for b in range(n) if y_mask >> b & 1)
        if best_y is None or y_tuple < best_y:
            best_y = y_tuple
    lhs = sum(a_demands[i] for i in x_tuple)
    return Lemma4Violation(x_tuple, best_y, lhs, lhs - deficiency)


def lemma4_check_exhaustive(
    host: BipartiteGraph,
    demand: BigraphicSequence,
    max_vertices: int = 24,
):
    """Exhaustive subset check for fixed-order embeddability.

    Returns None when pi(X) <= e(X,Y) + pi(~Y) holds for every X, Y in both
    orientations, otherwise the violation of maximal deficiency (ties: side
    A first, then lexicographically smallest X, then Y).
    """
    if (demand.m, demand.n) != (host.m, host.n):
        raise DimensionMismatch("demand shape does not match host")
    if host.m + host.n > max_vertices:
        raise SizeTooLarge(
            f"m+n = {host.m + host.n} exceeds enumeration bound {max_vertices}"
        )
    a_nbr = [0] * host.m  # bitmask of B-neighbors per a
    b_nbr = [0] * host.n
    for a, b in host.edges:
        a_nbr[a] |= 1 << b
        b_nbr[b] |= 1 << a
    v_a = _best_violation_for_side(
        demand.a_degrees, demand.b_degrees, b_nbr, host.m, host.n
    )
    v_b = _best_violation_for_side(
        demand.b_degrees, demand.a_degrees, a_nbr, host.n, host.m
    )
    if v_b is not None:
        v_b = Lemma4Violation(v_b.x, v_b.y, v_b.lhs, v_b.rhs, side="B")
    if v_a is None:
        return v_b
    if v_b is None or v_a.deficiency >= v_b.deficiency:
        return v_a
    return v_b


def fixed_order_embed(host: BipartiteGraph, demand: BigraphicSequence):
    """Find a subgraph of host meeting the demand degrees exactly.

    Network: source -> a_i with capacity demand(a_i); a_i -> b_j with unit
    capacity for each host edge; b_j -> sink with capacity demand(b_j).
    Returns the selected edge set, or Infeasible with the flow deficit.
    """
    if (demand.m, demand.n) != (host.m, host.n):
        raise DimensionMismatch("demand shape does not match host")
    if demand.a_sum != demand.b_sum:
        return Infeasible(abs(demand.a_sum - demand.b_sum), reason="side-sums")
    total = demand.a_sum
    m, n = host.m, host.n
    net = FlowNetwork(m + n + 2, m + n, m + n + 1)
    for a in range(m):
        net.add_arc(net.source, a, demand.a_degrees[a])
    edge_arcs = {}
    for a, b in sorted(host.edges):
        edge_arcs[(a, b)] = net.add_arc(a, m + b, 1)
    for b in range(n):
        net.add_arc(m + b, net.sink, demand.b_degrees[b])
    value = max_flow(net)
    if value < total:
        return Infeasible(total - value)
    return frozenset(e for e, arc in edge_arcs.items() if net.arc_flow(arc) == 1)
