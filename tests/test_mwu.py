"""Width-capped multiplicative-weights solver and its walk oracle."""

import math
import random

import pytest

from pflow import mwu as mwu_module
from pflow.lp import solve_edge_lp
from pflow.model import Demand, FlowNetwork, verify_walk_solution
from pflow.mwu import (MWUConfig, MWUState, default_delta, iteration_bound,
                       mwu_iterate, mwu_solve, shortest_processing_2walk)

from oracles import brute_min_processing_walk_costs, mwu_full_scan_placements


def test_default_delta_pinned():
    # delta(0.5, 4) = 1.5 * (1.5*4)^(-1/0.5) = 1.5/36
    d = default_delta(0.5, 4)
    assert abs(d - 0.041666667) < 1e-9
    assert abs(d - 1.5 * (1.5 * 4) ** -2.0) < 1e-15


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.7])
def test_epsilon_out_of_range_rejected(eps):
    with pytest.raises(ValueError):
        MWUConfig(epsilon=eps)


def test_triangle_walk_cost():
    # Direct arc costs 5, detour s->x->t costs 2 plus the cheapest stop.
    # Stopping at t itself (0.5) beats stopping at x (10): 2 + 0.5 = 2.5.
    net = FlowNetwork(["s", "x", "t"],
                      [("s", "x", 1.0), ("x", "t", 1.0), ("s", "t", 1.0)])
    res = shortest_processing_2walk(net, {0: 1.0, 1: 1.0, 2: 5.0},
                                    {"x": 10.0, "t": 0.5, "s": math.inf}, "s")
    assert res.cost_to("t") == 2.5
    nodes, stop, arcs, split = res.walk_to("t")
    assert nodes[0] == "s" and nodes[-1] == "t"
    assert stop == "t" and nodes[split] == stop


def test_walk_to_unreachable_is_none():
    net = FlowNetwork(["s", "t", "z"], [("s", "t", 1.0)])
    res = shortest_processing_2walk(net, {0: 1.0}, {"t": 1.0}, "s")
    assert res.walk_to("z") is None
    assert res.cost_to("z") == math.inf


@pytest.mark.parametrize("sink", [None, "x"], ids=["first-pass", "second-pass"])
def test_walk_oracle_rejects_a_negative_arc_cost(sink):
    # walks start at y; both arcs of edge c-x cost -1e-17, a negative cycle
    # Dijkstra would relax forever. With x as the sink, pass one may not
    # enter x, which leaves the arc c->x to pass two
    net = FlowNetwork(["c", "x", "y"], [("c", "x", 1.0), ("c", "y", 1.0)], directed=False)
    cost = [0.0] * net.n_arcs
    for a in net.groups[0]:
        cost[a] = -1e-17
    with pytest.raises(ValueError, match="negative arc cost"):
        shortest_processing_2walk(net, cost, {"c": 0.0, "y": 1.0}, "y", sink)


def test_walk_oracle_rejects_a_nan_arc_cost():
    # a NaN compares false both ways, so a `<` relaxation would skip the arc
    # and report t unreachable
    net = FlowNetwork("sat", [("s", "a", 1.0), ("a", "t", 1.0)])
    with pytest.raises(ValueError, match="NaN arc cost"):
        shortest_processing_2walk(net, [math.nan, 1.0], {"a": 1.0}, "s", "t")


@pytest.mark.parametrize("reached", [True, False], ids=["reached", "unreached"])
def test_walk_oracle_rejects_a_nan_node_cost(reached):
    # a NaN node cost is not the inf of a node that cannot process: it must
    # raise, not leave t unreachable, also at a node no walk reaches
    net = FlowNetwork("sabt", [("s", "a", 1.0), ("a", "t", 1.0), ("b", "a", 1.0)])
    node = "a" if reached else "b"
    with pytest.raises(ValueError, match=f"node cost nan at {node}"):
        shortest_processing_2walk(net, [1.0, 1.0, 1.0], {node: math.nan}, "s", "t")


def test_walk_oracle_matches_bruteforce():
    # Dyadic weights keep every path sum exact, so equality can be strict.
    rng = random.Random(40412)
    weights = [0.5, 1.0, 2.0, 3.0, 4.5, 8.0]
    for trial in range(40):
        n = rng.randint(2, 6)
        names = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(pairs)
        m = rng.randint(1, min(len(pairs), 3 * n))
        idx_arcs = [(a, b, rng.choice(weights)) for a, b in pairs[:m]]
        edges = [(names[a], names[b], 1.0) for a, b, _ in idx_arcs]
        net = FlowNetwork(names, edges)
        edge_cost = {i: w for i, (_, _, w) in enumerate(idx_arcs)}
        node_w = [rng.choice(weights + [math.inf]) for _ in range(n)]
        node_cost = {names[i]: node_w[i] for i in range(n)}
        s = rng.randrange(n)

        res = shortest_processing_2walk(net, edge_cost, node_cost, names[s])
        want = brute_min_processing_walk_costs(n, idx_arcs, node_w, s)
        got = [res.cost_to(names[v]) for v in range(n)]
        assert got == want, f"trial {trial}: {got} != {want}"


def test_first_iteration_line():
    net = FlowNetwork(["s", "a", "t"], [("s", "a", 10.0), ("a", "t", 10.0)],
                      node_capacity={"a": 3.0})
    st = MWUState(net, [Demand("s", "t")], 0.1, default_delta(0.1, 2))
    idx, nodes, flow, proc = mwu_iterate(st)
    assert idx == 0
    assert nodes == ("s", "a", "t")
    assert abs(flow - 3.0) < 1e-12          # node cap is the width here
    assert set(proc) == {"a"}


def test_first_iteration_takes_double_visit():
    # Only p can process, so the first placement must detour a->p->a.
    net = FlowNetwork(["s", "a", "p", "t"],
                      [("s", "a", 2.0), ("a", "p", 2.0),
                       ("p", "a", 2.0), ("a", "t", 2.0)],
                      node_capacity={"p": 5.0})
    st = MWUState(net, [Demand("s", "t")], 0.1, default_delta(0.1, 4))
    _, nodes, flow, proc = mwu_iterate(st)
    assert nodes == ("s", "a", "p", "a", "t")
    assert abs(flow - 2.0) < 1e-12
    assert set(proc) == {"p"}


@pytest.mark.parametrize("fixture_name,floor", [("inst_line", 2.7), ("inst_loop", 1.8)])
def test_full_solve_fixed_instances(fixture_name, floor, request):
    net, demands = request.getfixturevalue(fixture_name)
    sol = mwu_solve(net, demands, MWUConfig(epsilon=0.1))
    rep = verify_walk_solution(net, demands, sol)
    assert rep.ok, rep.problems
    assert sol.objective >= floor
    assert sol.meta["algorithm"] == "mwu"
    assert sol.meta["epsilon"] == 0.1
    assert sol.meta["iterations"] <= sol.meta["iteration_bound"]
    for key in ("delta", "scale", "sigma"):
        assert key in sol.meta


def test_random_instances_near_lp():
    rng = random.Random(99173)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        names = [f"v{i}" for i in range(n)]
        directed = rng.random() < 0.5
        pairs = [(a, b) for a in names for b in names if a != b]
        if not directed:
            pairs = [(a, b) for a, b in pairs if a < b]
        rng.shuffle(pairs)
        m = rng.randint(n, min(len(pairs), 3 * n))
        edges = [(a, b, float(rng.choice([1, 2, 3, 5, 8]))) for a, b in pairs[:m]]
        caps = {v: float(rng.choice([0, 0, 1, 2, 4])) for v in names}
        net = FlowNetwork(names, edges, node_capacity=caps, directed=directed)
        demands = []
        for _ in range(rng.randint(1, 3)):
            s, t = rng.sample(names, 2)
            demands.append(Demand(s, t, rng.choice([math.inf, 2.0, 5.0])))

        lp_sol, _ = solve_edge_lp(net, demands)
        if lp_sol.objective < 1e-9:
            continue
        checked += 1
        sol = mwu_solve(net, demands, MWUConfig(epsilon=0.1))
        rep = verify_walk_solution(net, demands, sol)
        assert rep.ok, rep.problems
        # Finite per-demand amounts cost a little extra in the final
        # rescale (budget clamping mid-round); 0.9 holds for the
        # unlimited-demand corpus, checked in test_acceptance.
        assert sol.objective >= 0.85 * lp_sol.objective
        assert sol.meta["iterations"] <= sol.meta["iteration_bound"]
    assert checked >= 20


def test_zero_processing_capacity_yields_empty():
    net = FlowNetwork(["s", "t"], [("s", "t", 1.0)])
    sol = mwu_solve(net, [Demand("s", "t")])
    assert sol.objective == 0.0
    assert sol.entries == []


def test_solve_is_deterministic(inst_loop):
    net, demands = inst_loop
    a = mwu_solve(net, demands, MWUConfig(epsilon=0.2))
    b = mwu_solve(net, demands, MWUConfig(epsilon=0.2))
    assert a.entries == b.entries
    assert a.meta["iterations"] == b.meta["iterations"]


def test_iteration_bound_monotone_in_size():
    small = iteration_bound(4, 5, 0.1, default_delta(0.1, 5))
    big = iteration_bound(40, 80, 0.1, default_delta(0.1, 80))
    assert 0 < small < big


def _random_network(rng, n):
    names = [f"v{i}" for i in range(n)]
    directed = rng.random() < 0.5
    pairs = [(a, b) for a in names for b in names if a != b]
    if not directed:
        pairs = [(a, b) for a, b in pairs if a < b]
    rng.shuffle(pairs)
    m = rng.randint(n, min(len(pairs), 3 * n))
    edges = [(a, b, float(rng.choice([1, 2, 3, 5, 8]))) for a, b in pairs[:m]]
    caps = {v: float(rng.choice([0, 1, 2, 4])) for v in names}
    caps[rng.choice(names)] = 2.0
    # z has no arcs, so any demand into it has no valid walk
    return FlowNetwork(names + ["z"], edges, node_capacity=caps, directed=directed), names


def test_lazy_argmin_matches_full_scan(monkeypatch):
    # The solver reprices only demands whose last cost could still win; the
    # reference reprices every active demand every round. Duplicated demands
    # tie exactly.
    seen = []

    def recording(state):
        placement = mwu_iterate(state)
        if placement is not None:
            seen.append(placement[:3])
        return placement

    monkeypatch.setattr(mwu_module, "mwu_iterate", recording)
    rng = random.Random(52117)
    for trial in range(36):
        net, names = _random_network(rng, rng.randint(3, 6))
        demands = []
        for _ in range(rng.randint(1, 3)):
            s, t = rng.sample(names, 2)
            demands.append(Demand(s, t, rng.choice([math.inf, math.inf, 2.0, 5.0])))
        twin = rng.choice(demands)
        demands.append(Demand(twin.source, twin.sink, rng.choice([math.inf, 3.0])))
        demands.append(Demand(rng.choice(names), "z"))
        rng.shuffle(demands)
        eps = rng.choice([0.1, 0.3, 0.5])

        seen.clear()
        sol = mwu_solve(net, demands, MWUConfig(epsilon=eps))
        want, rounds = mwu_full_scan_placements(net, demands, eps)
        assert seen == want, f"trial {trial}"
        assert sol.meta["iterations"] == rounds


def test_lazy_argmin_matches_full_scan_among_near_ties():
    # With an initial weight near 1e-16 the walk costs start below the 1e-15
    # tie tolerance and climb through it, so the index-order scan follows
    # chains of near-ties that a purely relative reprice margin would cut.
    rng = random.Random(61307)
    for trial in range(20):
        net, names = _random_network(rng, rng.randint(4, 6))
        demands = [Demand(*rng.sample(names, 2)) for _ in range(rng.randint(4, 7))]
        eps, delta = 0.5, rng.choice([1e-17, 1e-16, 4e-16, 1e-15])
        st = MWUState(net, demands, eps, delta)
        got = []
        while not st.stopped and any(st.active) and st.iteration < 60:
            placement = mwu_iterate(st)
            if placement is not None:
                got.append(placement[:3])
        want, rounds = mwu_full_scan_placements(net, demands, eps, delta, max_rounds=60)
        assert got == want, f"trial {trial}"
        assert st.iteration == rounds


def test_round_pricing_matches_the_walk_oracle(monkeypatch):
    # A round prices each demand with a search whose second pass stops once
    # the sink is settled. Every demand it reprices must get the cost and
    # the walk that the full search of shortest_processing_2walk finds on
    # that round's costs, and a demand that drops out must have no walk
    # there. Integer capacities make walk costs tie exactly; a twin shares
    # its pair's plan. Each demand a round prices is one call of the module's
    # shortest_processing_2walk, the name a tracer wraps to count them.
    real, oracle = mwu_module._reprice, shortest_processing_2walk
    priced = dropped = tied = calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return oracle(*args, **kwargs)

    def checking(state):
        nonlocal priced, dropped, tied
        net = state.net
        arc_cost = list(state.arc_cost)
        node_cost = dict(zip(net.nodes, state.node_cost))
        was_active = list(state.active)
        before = calls
        fresh = real(state)
        newly_dropped = 0
        for i, d in enumerate(state.demands):
            want = oracle(net, arc_cost, node_cost, d.source, d.sink)
            if i in fresh:
                cost, res = fresh[i]
                assert cost == want.cost_to(d.sink)
                assert res.walk_to(d.sink) == want.walk_to(d.sink)
                priced += 1
            elif was_active[i] and not state.active[i]:
                assert want.cost_to(d.sink) == math.inf
                newly_dropped += 1
        assert calls - before == len(fresh) + newly_dropped
        dropped += newly_dropped
        costs = [c for c, _ in fresh.values()]
        tied += len(set(costs)) < len(costs)
        return fresh

    monkeypatch.setattr(mwu_module, "_reprice", checking)
    monkeypatch.setattr(mwu_module, "shortest_processing_2walk", counting)
    rng = random.Random(33391)
    for _ in range(24):
        net, names = _random_network(rng, rng.randint(4, 7))
        demands = [Demand(*rng.sample(names, 2), rng.choice([math.inf, 3.0]))
                   for _ in range(rng.randint(1, 3))]
        demands.append(Demand(demands[0].source, demands[0].sink))
        demands.append(Demand(rng.choice(names), "z"))
        rng.shuffle(demands)
        mwu_solve(net, demands, MWUConfig(epsilon=rng.choice([0.2, 0.3, 0.5])))
    assert priced > 1000 and dropped > 0 and tied > 0


def test_upper_bound_certifies_uncapped_instances():
    rng = random.Random(80233)
    checked = 0
    for _ in range(30):
        net, names = _random_network(rng, rng.randint(3, 7))
        demands = [Demand(*rng.sample(names, 2)) for _ in range(rng.randint(1, 3))]
        sol = mwu_solve(net, demands, MWUConfig(epsilon=0.2))
        lp_sol, _ = solve_edge_lp(net, demands)
        bound = sol.meta["upper_bound"]
        assert bound >= sol.objective
        assert bound >= lp_sol.objective * (1.0 - 1e-9)
        checked += lp_sol.objective > 1e-9
    assert checked >= 20


def test_upper_bound_absent_when_a_demand_is_capped(inst_line):
    net, demands = inst_line
    capped = demands + [Demand("s", "t", 1.0)]
    assert "upper_bound" not in mwu_solve(net, capped, MWUConfig(epsilon=0.3)).meta
    assert "upper_bound" not in mwu_solve(FlowNetwork("st", [("s", "t", 1.0)]),
                                          [Demand("s", "t", 1.0)]).meta


def test_every_path_reports_the_same_meta_keys(inst_line):
    net, demands = inst_line
    main = mwu_solve(net, demands, MWUConfig(epsilon=0.3)).meta
    no_demands = mwu_solve(net, []).meta
    no_capacity = mwu_solve(FlowNetwork("st", [("s", "t", 1.0)]), [Demand("s", "t")]).meta
    isolated = FlowNetwork("satz", [("s", "a", 1.0), ("a", "t", 1.0)], {"a": 1.0})
    unroutable = mwu_solve(isolated, [Demand("s", "z")]).meta
    assert main["stopped_by"] == "weight"
    for meta in (no_demands, no_capacity, unroutable):
        assert set(meta) == set(main)
        assert meta["stopped_by"] == "demands"
        assert meta["upper_bound"] == 0.0
