"""Multiplicative-weights solver and its walk oracle."""

import math
import random

import pytest

import pflow.lp
from pflow import mwu as mwu_module
from pflow.lp import solve_edge_lp
from pflow.model import (Demand, FlowNetwork, ResourceLimitError, StructuralError,
                         verify_walk_solution)
from pflow.mwu import MWUConfig, default_delta, iteration_bound, mwu_solve

from oracles import (brute_min_processing_walk_costs, edge_lp_optimum, seeded_instances,
                     shortest_processing_2walk)


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


def _first_round(monkeypatch, net, demands):
    """The walks and flows `charge_walks` gives MWU's first round."""
    rounds = []

    def recording(*args, **kwargs):
        rounds.append(real(*args, **kwargs))
        return rounds[-1]

    real = mwu_module.charge_walks
    monkeypatch.setattr(mwu_module, "charge_walks", recording)
    mwu_solve(net, demands, MWUConfig(epsilon=0.1))
    return [((net.arcs[arcs[0]].tail, *(net.arcs[a].head for a in arcs)),
             net.arcs[arcs[split - 1]].head, f) for (_, arcs, split), f in rounds[0][0]]


def test_first_iteration_line(monkeypatch, inst_line):
    # the relay's capacity 3 is the walk's bottleneck
    assert _first_round(monkeypatch, *inst_line) == [(("s", "a", "t"), "a", 3.0)]


def test_first_iteration_takes_double_visit(monkeypatch, inst_loop):
    # Only p can process, so the first round must detour a->p->a, at the
    # bandwidth 2 of its arcs
    assert _first_round(monkeypatch, *inst_loop) == [(("s", "a", "p", "a", "t"), "p", 2.0)]


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


def test_every_round_prices_as_the_walk_oracle(monkeypatch):
    # each round's one pricing call, on the graph the solve holds, costs
    # every demand, the inactive ones included, as shortest_processing_2walk
    # does demand by demand under the same prices; the two sum a walk's
    # prices in other orders
    real = pflow.lp._WalkGraph.price
    priced = unreachable = 0
    net = demands = None  # the instance being solved

    def checking(graph, price, closed):
        nonlocal priced, unreachable
        cost, walk = real(graph, price, closed)
        k = len(demands)
        arc_cost = [price[k + a.group] if net.group_capacity[a.group] > 0 else math.inf
                    for a in net.arcs]
        node_cost = [price[k + net.edge_count + j] if net.node_capacity[v] > 0 else math.inf
                     for j, v in enumerate(net.nodes)]
        for i, d in enumerate(demands):
            want = shortest_processing_2walk(net, arc_cost, node_cost, d.source, d.sink)
            want = want.cost_to(d.sink)
            if math.isinf(want):
                assert cost[i] == want
                unreachable += 1
            else:
                assert cost[i] == pytest.approx(want, rel=1e-12, abs=0.0)
                priced += 1
        return cost, walk

    monkeypatch.setattr(pflow.lp._WalkGraph, "price", checking)
    for net, demands in seeded_instances():
        mwu_solve(net, demands, MWUConfig(epsilon=0.3))
    assert priced > 1000 and unreachable > 0


def test_no_round_loads_a_resource_past_its_capacity(monkeypatch):
    # a round's batch is scaled so that it uses at most each resource's
    # capacity: between two pricing calls no price grows by more than the
    # factor 1 + eps that one full capacity's worth of load brings, and on
    # some round a batch that would overload a resource is scaled to
    # exactly that
    real, eps = pflow.lp._WalkGraph.price, 0.3
    prices = []

    def recording(graph, price, closed):
        prices.append(price[len(graph.sources):].copy())
        return real(graph, price, closed)

    monkeypatch.setattr(pflow.lp._WalkGraph, "price", recording)
    full = 0
    for net, demands in seeded_instances():
        prices.clear()
        mwu_solve(net, demands, MWUConfig(epsilon=eps))
        for before, after in zip(prices, prices[1:]):
            grown = [math.log(b / a) / math.log1p(eps) for a, b in zip(before, after) if a > 0]
            assert max(grown) <= 1.0 + 1e-9
            full += max(grown) > 1.0 - 1e-9
    assert full > 0


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_certificate_stop_bounds_the_optimum(eps):
    # when no demand is capped, upper_bound is a dual bound on the arc LP's
    # optimum, and a run that stops by its certificate returns at least
    # (1 - eps) of it
    stops = set()
    for net, demands in seeded_instances():
        sol = mwu_solve(net, demands, MWUConfig(epsilon=eps))
        rep = verify_walk_solution(net, demands, sol)
        assert rep.ok, rep.problems
        meta = sol.meta
        stops.add(meta["stopped_by"])
        if "upper_bound" in meta:
            want = edge_lp_optimum(net, demands)
            assert meta["upper_bound"] >= want * (1.0 - 1e-9)
        if meta["stopped_by"] == "certificate":
            assert sol.objective >= (1.0 - eps) * meta["upper_bound"]
    assert stops == {"certificate", "weight", "demands"}


def test_degenerate_demand_raises_the_validators_error(inst_line):
    net, _ = inst_line
    with pytest.raises(StructuralError, match="^demand 1: degenerate demand s->s$"):
        mwu_solve(net, [Demand("s", "t"), Demand("s", "s")])


def test_walk_without_a_finite_bottleneck_is_unbounded():
    # every capacity infinite: the walk master reports such an instance
    # unbounded, and so does MWU, where a capped demand simply routes its amount
    net = FlowNetwork("sat", [("s", "a", math.inf), ("a", "t", math.inf)], {"a": math.inf})
    with pytest.raises(ResourceLimitError, match="unbounded"):
        solve_edge_lp(net, [Demand("s", "t")])
    with pytest.raises(ResourceLimitError, match="unbounded"):
        mwu_solve(net, [Demand("s", "t")])
    sol = mwu_solve(net, [Demand("s", "t", 2.0)])
    assert sol.objective == pytest.approx(2.0, rel=1e-9)
    assert verify_walk_solution(net, [Demand("s", "t", 2.0)], sol).ok


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
    assert main["stopped_by"] == "certificate"
    for meta in (no_demands, no_capacity, unroutable):
        assert set(meta) == set(main)
        assert meta["stopped_by"] == "demands"
        assert meta["upper_bound"] == 0.0
