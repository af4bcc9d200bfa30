"""Route-then-process baseline: route a max flow, then pay for processing
at the first path vertex that still has headroom."""

import math
import random

import pytest

from pflow.lp import solve_edge_lp, solve_lp
from pflow.model import Demand, FlowNetwork, feas_slack, verify_walk_solution
from pflow.naive import naive_solve, route_paths

from oracles import mixed_routing_instances, net_outflow_routing_lp


def test_line(inst_line):
    net, demands = inst_line
    sol = naive_solve(net, demands)
    assert sol.objective == pytest.approx(3.0)
    assert sol.meta["algorithm"] == "naive"
    assert sol.meta["routed"] == pytest.approx(10.0)
    assert verify_walk_solution(net, demands, sol).ok


def test_loop_paths_cannot_reach_processor(inst_loop):
    # Simple s->t paths never visit p, the only node with capacity, so
    # phase two strands everything phase one routed.
    net, demands = inst_loop
    sol = naive_solve(net, demands)
    assert sol.objective == 0.0
    assert sol.meta["routed"] == pytest.approx(2.0)
    assert verify_walk_solution(net, demands, sol).ok


def test_detour_gap(naive_gap):
    # The walk LP doubles back through w; path routing cannot.
    net, demands = naive_gap
    sol = naive_solve(net, demands)
    lp_sol, _ = solve_edge_lp(net, demands)
    assert sol.objective == 0.0
    assert lp_sol.objective == pytest.approx(2.0)


def test_processes_at_first_vertex_with_headroom():
    # Both interior vertices could process; earliest one wins the tie.
    net = FlowNetwork("sabt",
                      [("s", "a", 4.0), ("a", "b", 4.0), ("b", "t", 4.0)],
                      {"a": 1.0, "b": 4.0})
    demands = [Demand("s", "t", math.inf)]
    sol = naive_solve(net, demands)
    assert sol.objective == pytest.approx(4.0)
    proc = {}
    for e in sol.entries:
        for v, q in e.processing.items():
            proc[v] = proc.get(v, 0.0) + q
    assert proc["a"] == pytest.approx(1.0)
    assert proc["b"] == pytest.approx(3.0)


def test_never_beats_lp_and_stays_feasible():
    rng = random.Random(60233)
    for _ in range(40):
        n = rng.randint(3, 7)
        names = [f"v{i}" for i in range(n)]
        directed = rng.random() < 0.5
        pairs = [(a, b) for a in names for b in names if a != b]
        if not directed:
            pairs = [(a, b) for a, b in pairs if a < b]
        rng.shuffle(pairs)
        m = rng.randint(n - 1, min(len(pairs), 3 * n))
        edges = [(a, b, float(rng.randint(1, 5))) for a, b in pairs[:m]]
        caps = {v: float(rng.randint(0, 4)) for v in names}
        net = FlowNetwork(names, edges, node_capacity=caps, directed=directed)
        demands = []
        for _ in range(rng.randint(1, 2)):
            s, t = rng.sample(names, 2)
            demands.append(Demand(s, t, rng.choice([math.inf, 3.0])))

        sol = naive_solve(net, demands)
        rep = verify_walk_solution(net, demands, sol)
        assert rep.ok, rep.problems
        lp_sol, _ = solve_edge_lp(net, demands)
        assert sol.objective <= lp_sol.objective + 1e-6


def test_zero_capacity_graph():
    net = FlowNetwork("st", [("s", "t", 5.0)])
    sol = naive_solve(net, [Demand("s", "t", math.inf)])
    assert sol.objective == 0.0
    assert sol.meta["routed"] == pytest.approx(5.0)


def test_routed_paths_are_simple_and_add_up_to_the_routing_optimum():
    # at full bandwidth and at the B/2 the purchase greedy routes over
    directed = set()
    for full, demands in mixed_routing_instances():
        for share in (1.0, 0.5):
            net = FlowNetwork(full.nodes, [(u, v, c * share) for u, v, c in full.edges],
                              full.node_capacity, directed=full.directed)
            routing = route_paths(net, demands)
            per_demand = [0.0] * len(demands)
            for e in routing.entries:
                i, path, amount = e.demand, e.nodes, e.flow
                d = demands[i]
                assert path[0] == d.source and path[-1] == d.sink, path
                assert d.source not in path[1:] and d.sink not in path[:-1], path
                assert len(set(path)) == len(path), path
                assert all((u, v) in net.arc_index for u, v in zip(path, path[1:])), path
                assert amount > 0.0
                per_demand[i] += amount
            assert [e.demand for e in routing.entries] == sorted(e.demand for e in routing.entries)
            for d, got in zip(demands, per_demand):
                assert got <= d.amount + feas_slack(d.amount)
            assert sum(per_demand) == pytest.approx(routing.objective, rel=1e-12)
            want = solve_lp(net_outflow_routing_lp(net, demands, net.group_capacity)).objective
            assert abs(routing.objective - want) <= 1e-9 * max(1.0, want)
        directed.add(full.directed)
    assert directed == {True, False}
