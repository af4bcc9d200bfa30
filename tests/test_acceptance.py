"""Acceptance gate: one test per must-hold property of the finished library.

Run with -v for a one-line verdict per criterion. Everything here is
backed by an independent oracle (exhaustive enumeration, closed-form
arithmetic, or subset brute force); nothing is compared against the
library's own output of the same quantity.
"""

import math
import random
import time

import pytest

from oracles import (budgeted_purchase_bruteforce,
                     brute_min_processing_walk_costs, shortest_processing_2walk,
                     walk_lp_optimum)
from pflow.decompose import decompose, extraction_bound
from pflow.generators import (gen_random_instance, gen_random_purchase,
                              gen_reduction_instance)
from pflow.harness import SweepSpec, compare_runs
from pflow.lp import solve_edge_lp
from pflow.model import (Demand, FlowNetwork, InfeasibleError,
                         verify_walk_solution)
from pflow.mwu import MWUConfig, default_delta, mwu_solve
from pflow.naive import naive_solve
from pflow.purchase import (PurchaseInstance, greedy_budgeted_single_source,
                            round_budgeted_purchase, round_min_purchase,
                            rounding_rounds, solve_purchase_lp)
from ratios import ratio_series

# --------------------------------------------------------------------------
# shared corpus for the first three criteria: small seeded instances whose
# 2-walk space can be enumerated outright

CORPUS_SIZE = 120


def corpus_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    names = [f"n{i}" for i in range(n)]
    directed = rng.random() < 0.5
    pairs = [(a, b) for a in names for b in names if a != b]
    if not directed:
        pairs = [(a, b) for a, b in pairs if a < b]
    rng.shuffle(pairs)
    m = rng.randint(2, min(len(pairs), 10 if directed else 5))
    edges = [(a, b, float(rng.randint(1, 5))) for a, b in pairs[:m]]
    caps = {v: float(rng.randint(0, 5)) for v in names}
    net = FlowNetwork(names, edges, node_capacity=caps, directed=directed)
    demands = []
    for _ in range(rng.randint(1, 2)):
        s, t = rng.sample(names, 2)
        demands.append(Demand(s, t, math.inf))
    return net, demands


@pytest.fixture(scope="module")
def corpus():
    out = []
    for seed in range(1, CORPUS_SIZE + 1):
        net, demands = corpus_instance(seed)
        lp_sol, _ = solve_edge_lp(net, demands)
        out.append((seed, net, demands, lp_sol))
    return out


def test_01_edge_lp_matches_walk_enumeration(corpus):
    t0 = time.perf_counter()
    assert len(corpus) >= 100
    for seed, net, demands, lp_sol in corpus:
        enum = walk_lp_optimum(net, demands)
        assert abs(enum - lp_sol.objective) < 1e-6, \
            f"seed {seed}: enum {enum} vs lp {lp_sol.objective}"
    assert time.perf_counter() - t0 < 300.0


def test_02_decomposition_preserves_and_bounds(corpus):
    for seed, net, demands, lp_sol in corpus:
        wsol = decompose(lp_sol, net, demands)
        rep = verify_walk_solution(net, demands, wsol)
        assert rep.ok, f"seed {seed}: {rep.problems}"
        assert abs(wsol.objective - lp_sol.objective) < 1e-6, seed
        bound = extraction_bound(net)
        assert bound == net.n_nodes + 2 * net.n_arcs
        assert all(k <= bound for k in wsol.meta["extractions"]), seed
        for entry in wsol.entries:
            for v in set(entry.nodes):
                assert entry.nodes.count(v) <= 2, (seed, entry.nodes)


def test_03_mwu_ratio_loads_iterations(corpus):
    for seed, net, demands, lp_sol in corpus:
        sol = mwu_solve(net, demands, MWUConfig(epsilon=0.1))
        if lp_sol.objective > 1e-9:
            assert sol.objective >= 0.9 * lp_sol.objective, \
                f"seed {seed}: {sol.objective} < 0.9*{lp_sol.objective}"
        # hard 1e-9 load tolerance, tighter than the verifier's default
        arc_loads = sol.edge_loads(net)
        group_loads = [0.0] * len(net.group_capacity)
        for a, v in arc_loads.items():
            group_loads[net.arcs[a].group] += v
        for g, load in enumerate(group_loads):
            assert load <= net.group_capacity[g] + 1e-9, (seed, g)
        for v, load in sol.node_loads().items():
            assert load <= net.node_capacity[v] + 1e-9, (seed, v)
        n_edges = net.edge_count
        delta = sol.meta["delta"]
        analytic = (net.n_nodes + n_edges) * math.log(1.0 / (n_edges * delta)) / 0.1
        assert sol.meta["iterations"] <= analytic + 1e-9, seed


def test_04_walk_oracle_exact_on_random_graphs():
    # Dyadic weights make every comparison exact, no tolerance involved.
    rng = random.Random(77011)
    weights = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 8.0]
    for trial in range(200):
        n = rng.randint(2, 7)
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
        assert got == want, f"trial {trial}"


def test_05_fixed_point_vectors(inst_line, inst_loop, naive_gap):
    net, demands = inst_line
    lp_sol, _ = solve_edge_lp(net, demands)
    assert lp_sol.objective == pytest.approx(3.0, abs=1e-9)

    net, demands = inst_loop
    lp_sol, _ = solve_edge_lp(net, demands)
    assert lp_sol.objective == pytest.approx(2.0, abs=1e-9)
    wsol = decompose(lp_sol, net, demands)
    assert any(entry.nodes.count(v) == 2
               for entry in wsol.entries for v in entry.nodes)

    net, demands = naive_gap
    lp_sol, _ = solve_edge_lp(net, demands)
    assert lp_sol.objective == pytest.approx(2.0, abs=1e-9)
    assert naive_solve(net, demands).objective == 0.0

    assert default_delta(0.5, 4) == pytest.approx(0.041666667, abs=1e-9)


def test_06_baseline_dominated_and_gap_visible():
    inst = gen_random_instance(8, 0.3, (1, 5), (0, 5), 2, seed=3)
    assert inst.net.n_nodes == 8
    for dist in ("all", "half"):
        sweep = SweepSpec(lo=0.0, hi=4.75, step=0.25, dist=dist, seed=3)
        grid = sweep.grid()
        assert len(grid) == 20
        recs = compare_runs(inst.net, inst.demands, sweep,
                            algorithms=("lp", "naive"))
        assert all(r.feasible for r in recs)
        by = {(r.instance, r.algorithm): r.objective for r in recs}
        for k in grid:
            naive_v = by[(f"cap={k:g}/{dist}", "naive")]
            lp_v = by[(f"cap={k:g}/{dist}", "lp")]
            assert naive_v <= lp_v + 1e-9, (dist, k)
        if dist == "half":
            ratios = ratio_series(recs, num_alg="naive", den_alg="lp")
            assert min(ratios.values()) <= 0.8


def _relay_family():
    relays = [f"p{i}" for i in range(1, 5)]
    nodes = ["s", "u", "w", "t"] + relays
    edges = [("s", "u", 12.0), ("w", "t", 12.0)]
    for p in relays:
        edges.append(("u", p, 6.0))
        edges.append((p, "w", 6.0))
    net = FlowNetwork(nodes, edges, {})
    return PurchaseInstance(net, [Demand("s", "t", 8.0)],
                            potential={p: 5.0 for p in relays},
                            cost={"p1": 1.0, "p2": 1.01,
                                  "p3": 1.02, "p4": 1.03})


def _max_overshoot(inst, sol):
    net = inst.net
    group_load = [0.0] * len(net.group_capacity)
    node_load = {}
    for i in range(len(inst.demands)):
        for a, v in sol.flows.flow[i].items():
            group_load[net.arcs[a].group] += v
        for node, q in sol.flows.processing[i].items():
            node_load[node] = node_load.get(node, 0.0) + q
    worst = 0.0
    for g, load in enumerate(group_load):
        worst = max(worst, load - net.group_capacity[g])
    for node, load in node_load.items():
        cap = inst.potential.get(node, 0.0) if node in sol.purchased else 0.0
        worst = max(worst, load - cap)
    return worst


def test_07_min_purchase_rounding_guarantees():
    inst = _relay_family()
    lp_sol, _ = solve_purchase_lp(inst, "min")
    delta = 0.2
    t = rounding_rounds(inst.net.n_nodes, delta)
    assert t == math.ceil(9.0 * math.log(8) / (0.1 * 0.1))
    served_ok = 0
    costs = []
    for seed in range(50):
        r = round_min_purchase(inst, lp_sol, delta=delta, rng_seed=seed)
        assert _max_overshoot(inst, r) <= 1e-9, f"seed {seed}"
        if all(frac >= (1 - delta) - 1e-9 for frac in r.served.values()):
            served_ok += 1
        costs.append(r.cost)
    assert served_ok >= 45        # >= 90% of seeds
    assert sum(costs) / len(costs) <= t * lp_sol.objective


def test_08_budgeted_rounding_budget_and_value():
    for seed in range(50):
        n = 4 + seed % 4
        gen = gen_random_purchase(n, 0.5, n_candidates=min(3, n - 1),
                                  n_demands=2, seed=seed, budget=2.0)
        inst = gen.purchase()
        r = round_budgeted_purchase(inst, rng_seed=seed)
        assert r.cost <= inst.budget + 1e-9, f"seed {seed}"
        best, _ = budgeted_purchase_bruteforce(
            gen.net, gen.demands, gen.potential,
            {v: inst.price(v) for v in inst.candidates()}, inst.budget)
        assert r.value + 1e-9 >= best / (16.0 * math.log(n)), \
            f"seed {seed}: {r.value} vs brute {best}"


def test_09_greedy_single_source_floor(bud1):
    floor = (1 - 1 / math.e) / 8
    for seed in range(1, 31):
        n = 4 + seed % 5
        gen = gen_random_purchase(n, min(0.5, 2.2 / n),
                                  n_candidates=min(3, n - 1), n_demands=2,
                                  seed=1000 + seed, budget=2.0,
                                  directed=False, single_source=True)
        inst = gen.purchase()
        g = greedy_budgeted_single_source(inst)
        best, _ = budgeted_purchase_bruteforce(
            gen.net, gen.demands, gen.potential,
            {v: inst.price(v) for v in inst.candidates()}, inst.budget)
        assert g.value + 1e-9 >= floor * best, \
            f"seed {seed}: {g.value} vs brute {best}"

    net, demands, potential, cost, budget = bud1
    best, _ = budgeted_purchase_bruteforce(net, demands, potential,
                                           cost, budget)
    assert best == pytest.approx(3.0, abs=1e-9)
    g = greedy_budgeted_single_source(
        PurchaseInstance(net, demands, potential=potential,
                         cost=cost, budget=budget))
    assert g.value + 1e-9 >= floor * best


def test_10_reduction_gadgets_match_combinatorics():
    from itertools import combinations

    sc = gen_reduction_instance(
        "setcover", {"sets": [[1, 2], [2, 3]], "universe": [1, 2, 3]}
    ).purchase()
    best = None
    for r in range(len(sc.candidates()) + 1):
        if best is not None:
            break
        for sub in combinations(sc.candidates(), r):
            fix = {v: (1.0 if v in sub else 0.0) for v in sc.candidates()}
            try:
                solve_purchase_lp(sc, "min", fix=fix)
            except InfeasibleError:
                continue
            best = sum(sc.price(v) for v in sub)
            break
    assert best == 2.0            # both sets are needed to cover {1,2,3}

    vc = gen_reduction_instance(
        "vertexcover", {"edges": [("a", "b"), ("b", "c"), ("a", "c")]}
    ).purchase()
    best = None
    for r in range(len(vc.candidates()) + 1):
        if best is not None:
            break
        for sub in combinations(vc.candidates(), r):
            fix = {v: (1.0 if v in sub else 0.0) for v in vc.candidates()}
            try:
                solve_purchase_lp(vc, "min", fix=fix)
            except InfeasibleError:
                continue
            best = sum(vc.price(v) for v in sub)
            break
    assert best == 2.0            # a triangle needs two cover vertices

    mk = gen_reduction_instance(
        "maxkcover",
        {"sets": [[1, 2], [2, 3]], "universe": [1, 2, 3], "k": 1}
    ).purchase()
    brute_best = 0.0
    for v in mk.candidates():
        fix = {u: (1.0 if u == v else 0.0) for u in mk.candidates()}
        s, _ = solve_purchase_lp(mk, "budgeted", budget_cap=None, fix=fix)
        brute_best = max(brute_best, s.objective)
    assert brute_best == pytest.approx(2.0, abs=1e-6)
    r = round_budgeted_purchase(mk, rng_seed=6)
    assert r.value == pytest.approx(2.0, abs=1e-6)


def test_11_scale_run_under_a_minute():
    inst = gen_random_instance(35, 57 / 595.0, (1, 5), (0, 5), 20,
                               seed=1, directed=False)
    assert inst.net.n_nodes == 35
    assert inst.net.edge_count == 57
    assert len(inst.demands) == 20
    t0 = time.perf_counter()
    sol = mwu_solve(inst.net, inst.demands, MWUConfig(epsilon=0.3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    assert verify_walk_solution(inst.net, inst.demands, sol).ok
    assert sol.objective > 0.0
