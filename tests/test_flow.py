import random

import pytest
from hypothesis import given, settings, strategies as st

from bipack.flow import (
    FlowNetwork,
    Infeasible,
    Lemma4Violation,
    SizeTooLarge,
    capacitated_matching,
    fixed_order_embed,
    lemma4_check_exhaustive,
    max_flow,
)
from bipack.generators import gen_condition1_counterexample
from bipack.graphs import (
    BigraphicSequence,
    BipartiteGraph,
    DimensionMismatch,
    degree_sequence_of,
)
from util_enumeration import all_bipartite_graphs


def biclique(m, n):
    return BipartiteGraph(m, n, {(a, b) for a in range(m) for b in range(n)})


def worst_violation_scanning_y(a_demands, b_demands, nbr_masks, m, n):
    """Reference for one orientation: the best X by a per-b loop, then the
    lexicographically smallest optimal Y by scanning all 2^n subsets."""
    best = None
    for x_mask in range(1 << m):
        x_tuple = tuple(i for i in range(m) if x_mask >> i & 1)
        bound = sum(a_demands[i] for i in x_tuple)
        for b in range(n):
            bound -= min((nbr_masks[b] & x_mask).bit_count(), b_demands[b])
        if bound > 0 and (
            best is None or bound > best[0] or (bound == best[0] and x_tuple < best[1])
        ):
            best = (bound, x_tuple, x_mask)
    if best is None:
        return None
    deficiency, x_tuple, x_mask = best
    lhs = sum(a_demands[i] for i in x_tuple)
    e = [(nbr_masks[b] & x_mask).bit_count() for b in range(n)]
    best_y = None
    for y_mask in range(1 << n):
        rhs = sum(e[b] if y_mask >> b & 1 else b_demands[b] for b in range(n))
        y_tuple = tuple(b for b in range(n) if y_mask >> b & 1)
        if lhs - rhs == deficiency and (best_y is None or y_tuple < best_y):
            best_y = y_tuple
    return Lemma4Violation(x_tuple, best_y, lhs, lhs - deficiency)


def lemma4_scanning_y(host, demand):
    """Reference for lemma4_check_exhaustive, with the same tie rules."""
    a_nbr = list(host.rows)
    b_nbr = [sum(1 << a for a in range(host.m) if host.rows[a] >> b & 1) for b in range(host.n)]
    v_a = worst_violation_scanning_y(demand.a_degrees, demand.b_degrees, b_nbr, host.m, host.n)
    v_b = worst_violation_scanning_y(demand.b_degrees, demand.a_degrees, a_nbr, host.n, host.m)
    if v_b is not None:
        v_b = Lemma4Violation(v_b.x, v_b.y, v_b.lhs, v_b.rhs, side="B")
    if v_a is None:
        return v_b
    if v_b is None or v_a.deficiency >= v_b.deficiency:
        return v_a
    return v_b


@st.composite
def hosts_with_demands(draw, max_side=6):
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    host = BipartiteGraph.from_rows(m, n, rows)
    if draw(st.booleans()):
        # degrees of a random subgraph: feasible unless one is bumped
        keep = [row & draw(st.integers(0, (1 << n) - 1)) for row in rows]
        demand = degree_sequence_of(BipartiteGraph.from_rows(m, n, keep))
        if m and draw(st.booleans()):
            a = list(demand.a_degrees)
            a[draw(st.integers(0, m - 1))] += draw(st.integers(1, 2))
            demand = BigraphicSequence(a, demand.b_degrees)
    else:
        demand = BigraphicSequence(
            draw(st.lists(st.integers(0, n + 1), min_size=m, max_size=m)),
            draw(st.lists(st.integers(0, m + 1), min_size=n, max_size=n)),
        )
    return host, demand


class TestMaxFlow:
    def test_single_arc(self):
        net = FlowNetwork(2, 0, 1)
        net.add_arc(0, 1, 5)
        assert max_flow(net) == 5

    def test_bottleneck(self):
        net = FlowNetwork(3, 0, 2)
        net.add_arc(0, 1, 3)
        net.add_arc(1, 2, 2)
        assert max_flow(net) == 2

    def test_unit_bipartite_gadget(self):
        # s -> {a0,a1} -> {b0,b1} -> t, all unit; hand-checked value 2
        net = FlowNetwork(6, 0, 5)
        net.add_arc(0, 1, 1)
        net.add_arc(0, 2, 1)
        for a in (1, 2):
            for b in (3, 4):
                net.add_arc(a, b, 1)
        net.add_arc(3, 5, 1)
        net.add_arc(4, 5, 1)
        assert max_flow(net) == 2

    def test_value_invariant_under_arc_order(self):
        arcs = [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 4), (1, 2, 1)]
        values = set()
        for seed in range(5):
            shuffled = arcs[:]
            random.Random(seed).shuffle(shuffled)
            net = FlowNetwork(4, 0, 3)
            for u, v, c in shuffled:
                net.add_arc(u, v, c)
            values.add(max_flow(net))
        # hand-check: 2 along 0-1-3, 1 along 0-1-2-3, 2 along 0-2-3
        assert values == {5}

    def test_flows_are_integral_and_conserve(self):
        net = FlowNetwork(4, 0, 3)
        ids = [
            net.add_arc(0, 1, 3),
            net.add_arc(0, 2, 2),
            net.add_arc(1, 3, 2),
            net.add_arc(2, 3, 4),
            net.add_arc(1, 2, 1),
        ]
        value = max_flow(net)
        flows = [net.arc_flow(i) for i in ids]
        assert all(isinstance(f, int) and f >= 0 for f in flows)
        # conservation at nodes 1 and 2
        assert flows[0] == flows[2] + flows[4]
        assert flows[1] + flows[4] == flows[3]
        assert flows[2] + flows[3] == value

    def test_negative_capacity_rejected(self):
        net = FlowNetwork(2, 0, 1)
        with pytest.raises(ValueError):
            net.add_arc(0, 1, -1)

    def test_long_path_network(self):
        # a level graph 5000 arcs deep: a recursive search would overflow
        n = 5000
        net = FlowNetwork(n, 0, n - 1)
        for u in range(n - 1):
            net.add_arc(u, u + 1, 1)
        assert max_flow(net) == 1

    def test_random_networks_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        for _ in range(300):
            size = rng.randint(2, 9)
            net = FlowNetwork(size, 0, size - 1)
            g = nx.DiGraph()
            g.add_nodes_from(range(size))
            for _ in range(rng.randint(0, 3 * size)):
                u, v = rng.randrange(size), rng.randrange(size)
                if u == v:
                    continue
                c = rng.randint(0, 5)
                net.add_arc(u, v, c)
                if g.has_edge(u, v):
                    g[u][v]["capacity"] += c
                else:
                    g.add_edge(u, v, capacity=c)
            assert max_flow(net) == nx.maximum_flow_value(g, 0, size - 1)


def random_hub_instance(rng, balanced=False):
    """Hub neighbour lists and demands over a small leaf set.

    With balanced=True there are exactly as many leaves as total demand.
    """
    k = rng.randint(1, 5)
    demands = [rng.randint(0, 3) for _ in range(k)]
    if balanced:
        leaves = max(1, sum(demands))
        demands[0] += leaves - sum(demands)
    else:
        leaves = rng.randint(1, 8)
    p = rng.random()
    neighbours = [
        [b for b in range(leaves) if rng.random() < p] for _ in range(k)
    ]
    return neighbours, demands, leaves


def hub_copy_matching_size(neighbours, demands):
    """Maximum matching of demand-many copies per hub, by networkx."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    copies = [("hub", i, c) for i, d in enumerate(demands) for c in range(d)]
    g.add_nodes_from(copies)
    for _, i, c in copies:
        g.add_edges_from((("hub", i, c), ("leaf", b)) for b in neighbours[i])
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=copies)
    return len(matching) // 2


def check_assignment(neighbours, demands, assigned, deficit):
    """Host edges only, no leaf reused, no hub over its demand, sizes add up."""
    seen = set()
    for nbrs, need, hit in zip(neighbours, demands, assigned):
        assert set(hit) <= set(nbrs)
        assert len(hit) <= need
        if deficit == 0:
            assert len(hit) == need
        seen.update(hit)
    assert len(seen) == sum(len(hit) for hit in assigned)
    assert len(seen) == sum(demands) - deficit


class TestCapacitatedMatching:
    def test_matches_hub_copy_maximum_matching(self):
        rng = random.Random(1604)
        for _ in range(1000):
            neighbours, demands, _ = random_hub_instance(rng)
            assigned, deficit = capacitated_matching(neighbours, demands)
            check_assignment(neighbours, demands, assigned, deficit)
            assert sum(demands) - deficit == hub_copy_matching_size(
                neighbours, demands
            )

    def test_deficit_matches_flow(self):
        rng = random.Random(9)
        infeasible = 0
        for _ in range(1000):
            neighbours, demands, leaves = random_hub_instance(rng, balanced=True)
            host = BipartiteGraph(
                len(demands), leaves,
                {(i, b) for i, nbrs in enumerate(neighbours) for b in nbrs},
            )
            flow = fixed_order_embed(
                host, BigraphicSequence(tuple(demands), (1,) * leaves)
            )
            assigned, deficit = capacitated_matching(neighbours, demands)
            check_assignment(neighbours, demands, assigned, deficit)
            if isinstance(flow, Infeasible):
                infeasible += 1
                assert deficit == flow.deficit
            else:
                assert deficit == 0
        assert infeasible > 100

    def test_augmenting_path_through_every_hub(self):
        # greedy gives hub i leaf i+1, so the last hub's only leaf is taken
        # and the one augmenting path runs back through all 5000 hubs
        n = 5000
        neighbours = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
        assigned, deficit = capacitated_matching(neighbours, [1] * n)
        assert deficit == 0
        assert assigned == [[i] for i in range(n)]


class TestLemma4Check:
    def test_biclique_self_demand(self):
        host = biclique(2, 2)
        assert lemma4_check_exhaustive(host, degree_sequence_of(host)) is None

    def test_isolated_vertex_with_demand(self):
        host = BipartiteGraph(2, 2, {(0, 0)})
        v = lemma4_check_exhaustive(host, BigraphicSequence((1, 1), (1, 1)))
        assert v is not None
        assert v.deficiency >= 1
        # the reported inequality really is violated
        demand = BigraphicSequence((1, 1), (1, 1))
        if v.side == "A":
            pi_x = sum(demand.a_degrees[i] for i in v.x)
        else:
            pi_x = sum(demand.b_degrees[i] for i in v.x)
        assert pi_x == v.lhs and v.lhs > v.rhs

    def test_two_disjoint_edges(self):
        host = BipartiteGraph(2, 2, {(0, 0), (1, 1)})
        assert lemma4_check_exhaustive(host, BigraphicSequence((1, 1), (1, 1))) is None

    def test_size_guard(self):
        host = biclique(4, 4)
        with pytest.raises(SizeTooLarge):
            lemma4_check_exhaustive(
                host, degree_sequence_of(host), max_vertices=6
            )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lemma4_check_exhaustive(biclique(2, 2), BigraphicSequence((1,), (1, 1)))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(hosts_with_demands())
    def test_same_violation_as_scanning_every_y(self, instance):
        host, demand = instance
        assert lemma4_check_exhaustive(host, demand) == lemma4_scanning_y(host, demand)

    def test_tied_columns_below_and_above_the_forced_ones(self):
        # X = {0}: e = (1, 0, 1, 1) against pi = (1, 1, 1, 0): column 1 is
        # forced into Y, 0 and 2 tie; 0 lies below the forced column and
        # joins Y, 2 lies above it and stays out
        host = BipartiteGraph(1, 4, {(0, 0), (0, 2), (0, 3)})
        demand = BigraphicSequence((4,), (1, 1, 1, 0))
        v = lemma4_check_exhaustive(host, demand)
        assert v == lemma4_scanning_y(host, demand)
        assert (v.x, v.y, v.side) == ((0,), (0, 1), "A")

    def test_deterministic_violation_choice(self):
        host = BipartiteGraph(3, 3, {(0, 0)})
        demand = BigraphicSequence((1, 1, 1), (1, 1, 1))
        v1 = lemma4_check_exhaustive(host, demand)
        v2 = lemma4_check_exhaustive(host, demand)
        assert v1 == v2


class TestFixedOrderEmbed:
    def test_matching_in_biclique(self):
        edges = fixed_order_embed(biclique(2, 2), BigraphicSequence((1, 1), (1, 1)))
        assert not isinstance(edges, Infeasible)
        assert len(edges) == 2
        assert len({a for a, _ in edges}) == 2 and len({b for _, b in edges}) == 2

    def test_sparse_host_infeasible(self):
        result = fixed_order_embed(
            BipartiteGraph(2, 2, {(0, 0)}), BigraphicSequence((1, 1), (1, 1))
        )
        assert isinstance(result, Infeasible)
        assert result.deficit == 1

    def test_unequal_sums_immediately_infeasible(self):
        result = fixed_order_embed(biclique(2, 2), BigraphicSequence((2, 2), (2, 1)))
        assert isinstance(result, Infeasible)
        assert result.reason == "side-sums"

    def test_counterexample_host_has_no_matching(self):
        host = gen_condition1_counterexample(4)
        result = fixed_order_embed(host, BigraphicSequence((1,) * 4, (1,) * 4))
        assert isinstance(result, Infeasible)

    def test_exact_degrees_on_success(self):
        host = biclique(3, 3)
        demand = BigraphicSequence((2, 1, 0), (1, 1, 1))
        edges = fixed_order_embed(host, demand)
        assert not isinstance(edges, Infeasible)
        sub = BipartiteGraph(3, 3, edges)
        assert degree_sequence_of(sub) == demand


class TestLemma4FlowEquivalence:
    """Subset predicate and flow constructor must agree everywhere."""

    def check(self, host, demand):
        violation = lemma4_check_exhaustive(host, demand)
        result = fixed_order_embed(host, demand)
        feasible = not isinstance(result, Infeasible)
        assert (violation is None) == feasible, (host, demand, violation, result)
        if feasible:
            assert degree_sequence_of(BipartiteGraph(host.m, host.n, result)) == demand

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 3)])
    def test_all_small_hosts_all_ones(self, m, n):
        demand = BigraphicSequence((1,) * m, (1,) * n)
        for host in all_bipartite_graphs(m, n):
            self.check(host, demand)

    def test_random_instances(self):
        rng = random.Random(20240824)
        for _ in range(200):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            p = rng.random()
            edges = frozenset(
                (a, b) for a in range(m) for b in range(n) if rng.random() < p
            )
            host = BipartiteGraph(m, n, edges)
            if rng.random() < 0.5:
                # degrees of a random subgraph: guaranteed feasible shape
                keep = frozenset(e for e in edges if rng.random() < 0.6)
                demand = degree_sequence_of(BipartiteGraph(m, n, keep))
            else:
                demand = BigraphicSequence(
                    tuple(rng.randint(0, n) for _ in range(m)),
                    tuple(rng.randint(0, m) for _ in range(n)),
                )
            self.check(host, demand)
