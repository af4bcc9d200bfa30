"""Capacity-purchase variants: coverage LP, rounding, budgeted greedy."""

import itertools
import json
import math
import random
from dataclasses import replace
from itertools import combinations

import pytest

from pflow import purchase
from pflow.generators import gen_random_purchase, gen_reduction_instance
from pflow.instance_io import solution_document
from pflow.lp import solve_lp
from pflow.model import (Demand, FlowNetwork, InfeasibleError, StructuralError,
                         feas_slack)
from pflow.purchase import (PurchaseInstance, _max_flow, _ProcessingFlowOracle,
                            build_purchase_lp, greedy_budgeted_single_source,
                            round_budgeted_purchase, round_min_purchase,
                            rounding_rounds, solve_purchase_lp,
                            validate_purchase_instance)

from oracles import (arc_leg_purchase_lp, best_single_exhaustive, legs, max_flow_lp,
                     served_with_purchases)


def make_pur1(pur1):
    net, demands, potential, cost = pur1
    return PurchaseInstance(net, demands, potential=potential, cost=cost)


class TestMinCoverageLP:
    def test_single_candidate_forced(self, pur1):
        # Serving 4 through a 10-unit candidate forces x_a = 1 because the
        # per-demand coupling caps served flow at R * x.
        inst = make_pur1(pur1)
        sol, res = solve_purchase_lp(inst, "min")
        assert sol.objective == pytest.approx(5.0, abs=1e-6)
        assert sol.x["a"] == pytest.approx(1.0, abs=1e-9)
        served = sum(val for (i, _), val in sol.served.items() if i == 0)
        assert served == pytest.approx(4.0, abs=1e-6)
        assert res.status == "optimal"

    def test_integral_lp_rounds_to_itself(self, pur1):
        inst = make_pur1(pur1)
        sol, _ = solve_purchase_lp(inst, "min")
        r = round_min_purchase(inst, sol, delta=0.1, rng_seed=7)
        assert r.purchased == {"a"}
        assert r.cost == pytest.approx(5.0, abs=1e-9)
        assert r.served[0] == pytest.approx(1.0, abs=1e-9)   # fraction of R
        assert r.meta["rounds"] == rounding_rounds(3, 0.1)
        assert r.meta["gamma"] == 1.0

    def test_prefers_cheap_sufficient_candidate(self):
        net = FlowNetwork("sabt",
                          [("s", "a", 10.0), ("a", "t", 10.0),
                           ("s", "b", 10.0), ("b", "t", 10.0)], {})
        inst = PurchaseInstance(net, [Demand("s", "t", 2.0)],
                                potential={"a": 2.0, "b": 10.0},
                                cost={"a": 1.0, "b": 3.0})
        sol, _ = solve_purchase_lp(inst, "min")
        assert sol.objective <= 1.0 + 1e-6

    def test_infeasible_when_potential_short(self, pur1):
        net, demands, _, cost = pur1
        inst = PurchaseInstance(net, demands, potential={"a": 1.0}, cost=cost)
        with pytest.raises(InfeasibleError):
            solve_purchase_lp(inst, "min")

    def test_rounding_deterministic_per_seed(self, pur1):
        inst = make_pur1(pur1)
        sol, _ = solve_purchase_lp(inst, "min")
        a = round_min_purchase(inst, sol, delta=0.3, rng_seed=41)
        b = round_min_purchase(inst, sol, delta=0.3, rng_seed=41)
        assert a.purchased == b.purchased and a.cost == b.cost


class TestEndpointCandidates:
    # Flow may leave a bought source already processed, or convert on
    # arrival at a bought sink. Only candidates strictly inside a walk
    # need both legs.

    def test_buy_the_source(self):
        net = FlowNetwork("st", [("s", "t", 5.0)], {})
        inst = PurchaseInstance(net, [Demand("s", "t", 4.0)],
                                potential={"s": 10.0}, cost={"s": 3.0})
        sol, _ = solve_purchase_lp(inst, "min")
        assert sol.objective == pytest.approx(3.0, abs=1e-6)
        assert sol.served[(0, "s")] == pytest.approx(4.0, abs=1e-6)
        r = round_min_purchase(inst, sol, delta=0.1, rng_seed=2)
        assert r.purchased == {"s"}
        assert r.served[0] == pytest.approx(1.0, abs=1e-9)

    def test_buy_the_sink(self):
        net = FlowNetwork("st", [("s", "t", 5.0)], {})
        inst = PurchaseInstance(net, [Demand("s", "t", 4.0)],
                                potential={"t": 10.0}, cost={"t": 2.0})
        sol, _ = solve_purchase_lp(inst, "min")
        assert sol.objective == pytest.approx(2.0, abs=1e-6)
        assert sol.served[(0, "t")] == pytest.approx(4.0, abs=1e-6)


class TestBudgetedGreedy:
    def test_budget_one_buys_the_big_candidate(self, bud1):
        net, demands, potential, cost, budget = bud1
        inst = PurchaseInstance(net, demands, potential=potential,
                                cost=cost, budget=budget)
        g = greedy_budgeted_single_source(inst)
        assert g.purchased == {"a"}
        # quarter-capacity cut at s: (4 + 2)/4 = 1.5 bounds the oracle
        assert g.meta["processable"] == pytest.approx(1.5, abs=1e-6)
        assert g.value == pytest.approx(1.5, abs=1e-6)
        assert g.cost == 1.0

    def test_rich_budget_stops_at_zero_marginal(self, bud1):
        net, demands, potential, cost, _ = bud1
        inst = PurchaseInstance(net, demands, potential=potential,
                                cost=cost, budget=10.0)
        g = greedy_budgeted_single_source(inst)
        # b adds nothing once a saturates the quarter cut, so it stays unbought
        assert g.purchased == {"a"}
        assert g.value == pytest.approx(1.5, abs=1e-6)

    def test_nothing_for_sale(self, bud1):
        net, demands, _, _, _ = bud1
        inst = PurchaseInstance(net, demands, {}, {}, budget=5.0)
        g = greedy_budgeted_single_source(inst)
        assert g.value == 0.0 and not g.purchased

    def test_source_itself_purchasable(self, bud1):
        net, demands, _, _, _ = bud1
        inst = PurchaseInstance(net, demands,
                                potential={"s": 5.0, "a": 3.0},
                                cost={"s": 1.0, "a": 1.0}, budget=1.0)
        g = greedy_budgeted_single_source(inst)
        assert g.purchased == {"s"}
        assert g.meta["processable"] == pytest.approx(5.0, abs=1e-6)
        # routing at half capacity caps the realized value
        assert g.value == pytest.approx(3.0, abs=1e-6)

    def test_infinite_potential_rejected(self, bud1):
        # the max-flow oracle must never push an unbounded amount
        net, demands, _, cost, budget = bud1
        inst = PurchaseInstance(net, demands,
                                potential={"s": math.inf, "a": 3.0},
                                cost=cost, budget=budget)
        with pytest.raises(StructuralError, match="potential"):
            greedy_budgeted_single_source(inst)


    def test_a_node_named_like_the_pool_is_an_ordinary_node(self):
        # the oracle's super-source is no node id: a node called "+pool"
        # must not feed processing into the detour network
        results = []
        for m in ("m", "+pool"):
            net = FlowNetwork(["s", m, "t"], [("s", m, 40.0), ("s", "t", 4.0)],
                              directed=False)
            inst = PurchaseInstance(net, [Demand("s", "t", 10.0)],
                                    potential={"t": 3.0}, cost={"t": 1.0},
                                    budget=1.0)
            g = greedy_budgeted_single_source(inst)
            results.append((g.value, g.meta["processable"]))
        assert results[0] == pytest.approx((1.0, 1.0), abs=1e-9)
        assert results[1] == results[0]


class TestBudgetedRounding:
    def test_respects_budget(self, bud1):
        net, demands, potential, cost, budget = bud1
        inst = PurchaseInstance(net, demands, potential=potential,
                                cost=cost, budget=budget)
        r = round_budgeted_purchase(inst, rng_seed=3)
        assert r.cost <= budget + 1e-9
        assert r.value > 0.0

    def test_generous_budget_buys_everything_useful(self, bud1):
        net, demands, potential, cost, _ = bud1
        inst = PurchaseInstance(net, demands, potential=potential,
                                cost=cost, budget=2.0)
        r = round_budgeted_purchase(inst, rng_seed=3)
        assert r.purchased == {"a", "b"}
        assert r.value == pytest.approx(5.0, abs=1e-6)
        assert r.cost <= 2.0 + 1e-9

    def test_zero_budget(self, bud1):
        net, demands, _, _, _ = bud1
        inst = PurchaseInstance(net, demands, potential={"a": 3.0},
                                cost={"a": 1.0}, budget=0.0)
        r = round_budgeted_purchase(inst, rng_seed=1)
        assert r.value == 0.0 and not r.purchased

    def test_single_affordable_candidate_shortcut(self, pur1):
        net, demands, potential, cost = pur1
        inst = PurchaseInstance(net, demands, potential=potential,
                                cost=cost, budget=6.0)
        r = round_budgeted_purchase(inst, rng_seed=11)
        assert r.purchased == {"a"}
        assert r.value == pytest.approx(4.0, abs=1e-6)   # demand cap binds
        assert r.meta["shortcut"] is True


class TestRealizedLoads:
    """Rounded answers fit what they buy, checked by sums made here."""

    @staticmethod
    def peak_ratio(inst, sol):
        """Assert the loads fit and no demand is over-served; return the
        largest load/capacity ratio."""
        net = inst.net
        group_load = [0.0] * net.edge_count
        node_load = {}
        for i in range(len(inst.demands)):
            for a, val in sol.flows.flow[i].items():
                group_load[net.arcs[a].group] += val
            for v, val in sol.flows.processing[i].items():
                node_load[v] = node_load.get(v, 0.0) + val
        for g, load in enumerate(group_load):
            assert load <= net.group_capacity[g], f"group {g}"
        for v, load in node_load.items():
            assert v in sol.purchased and load <= inst.potential[v], v
        assert all(frac <= 1.0 for frac in sol.served.values())
        return max([load / net.group_capacity[g]
                    for g, load in enumerate(group_load) if load > 0.0]
                   + [load / inst.potential[v] for v, load in node_load.items()])

    def test_sampled_attempts_on_a_relay_star(self):
        inst = _relay_star()
        sol = round_budgeted_purchase(inst, rng_seed=1)
        assert sol.meta["branch"] == "sampled" and sol.meta["shortcut"] is False
        assert sol.meta["pool_size"] == 9
        assert sol.cost == 15.0 and sol.cost <= inst.budget
        assert len(sol.purchased) == 15
        # each bought relay routes 1/(4 ln 32) of the unit it could carry
        assert sol.value == pytest.approx(1.0820212806667227, rel=1e-9)
        assert 0.0 < self.peak_ratio(inst, sol) <= 1.0

    def test_overloaded_average_is_scaled_to_capacity(self):
        inst = gen_random_purchase(10, 0.35, n_candidates=4, n_demands=2,
                                   seed=1).purchase()
        lp_sol, _ = solve_purchase_lp(inst, "min")
        sol = round_min_purchase(inst, lp_sol, delta=0.2, rng_seed=1)
        assert sol.meta["gamma"] == pytest.approx(1.0017, abs=1e-4)
        assert sol.cost == sum(inst.price(v) for v in sol.purchased)
        # the global scaling stops where the worst resource is full
        assert self.peak_ratio(inst, sol) == pytest.approx(1.0, abs=1e-9)

    def test_over_credited_demand_is_scaled_to_its_amount(self):
        # at weight 3 the relay's leg pair would deliver 3 of the 1 asked for,
        # inside every capacity, so only the per-demand scaling applies
        net = FlowNetwork(["s", "a", "t"], [("s", "a", 10.0), ("a", "t", 10.0)])
        inst = PurchaseInstance(net, [Demand("s", "t", 1.0)], {"a": 10.0}, {"a": 1.0})
        lp_sol, _ = solve_purchase_lp(inst, "min")
        assert lp_sol.served == {(0, "a"): pytest.approx(1.0, rel=1e-12)}
        sol = purchase._realize(inst, lp_sol, {"a": 3.0}, {})
        assert sol.meta["gamma"] == 1.0
        assert sol.served == {0: 1.0}
        assert sol.flows.delivered(net, inst.demands, 0) == pytest.approx(1.0, rel=1e-9)
        assert self.peak_ratio(inst, sol) == pytest.approx(0.1, rel=1e-9)

    def test_greedy_answer_fits_its_set(self, bud1):
        net, demands, potential, cost, budget = bud1
        corpus = [PurchaseInstance(net, demands, potential, cost, budget)]
        corpus += [inst for _, inst in _single_source_instances()]
        bought = 0
        for k, inst in enumerate(corpus):
            g = greedy_budgeted_single_source(inst)
            # the set is the knapsack greedy's over the max-flow oracle
            oracle = purchase._ProcessingFlowOracle(inst, inst.demands[0].source)
            items = [v for v in inst.candidates() if inst.price(v) <= inst.budget]
            chosen, _ = purchase._knapsack_greedy(oracle, items, inst.price, inst.budget)
            assert g.purchased == chosen, k
            # no more than the most processed flow the set supports
            want = _pinned_objective(inst, "budgeted", dict.fromkeys(chosen, 1.0))
            assert g.value <= want + 1e-9 * max(1.0, want), k
            # it processes what it delivers, at bought nodes within their potential
            load = g.flows.node_loads()
            assert math.isclose(sum(load.values()), g.value, rel_tol=1e-9), k
            assert all(v in g.purchased and x <= inst.potential[v] for v, x in load.items()), k
            if g.purchased:
                bought += 1
                assert self.peak_ratio(inst, g) <= 1.0, k
        assert bought > 20


def _relay_star():
    # one relay serves 1 of the 14.5 the half-budget relaxation promises,
    # under the 1/(2 ln 32) shortcut share, so the sampled stage runs
    relays = [f"p{j}" for j in range(30)]
    net = FlowNetwork(["s", *relays, "t"],
                      [("s", p, 1.0) for p in relays] + [(p, "t", 1.0) for p in relays])
    return PurchaseInstance(net, [Demand("s", "t", 30.0)], dict.fromkeys(relays, 1.0),
                            dict.fromkeys(relays, 1.0), 29.0)


def _single_source_instances():
    # acceptance test_09's corpus: undirected, one shared source
    for seed in range(1, 31):
        n = 4 + seed % 5
        yield seed, gen_random_purchase(n, min(0.5, 2.2 / n), n_candidates=min(3, n - 1),
                                        n_demands=2, seed=1000 + seed, budget=2.0,
                                        directed=False, single_source=True).purchase()


def _balance_problems(inst, sol):
    """Per demand, where its flow is not conserved away from its endpoints,
    or its processing at a node other than its source is not the node's
    unprocessed inflow minus outflow, to 1e-9 relative."""
    net, problems = inst.net, []

    def net_in(m, v):
        return (sum(m.get(a, 0.0) for a in net.in_arcs[v])
                - sum(m.get(a, 0.0) for a in net.out_arcs[v]))

    for i, d in enumerate(inst.demands):
        f, w, p = sol.flows.flow[i], sol.flows.unprocessed[i], sol.flows.processing[i]
        tol = 1e-9 * max([1.0, *f.values(), *p.values()])
        for v in net.nodes:
            if v not in (d.source, d.sink) and abs(net_in(f, v)) > tol:
                problems.append((i, v, "flow", net_in(f, v)))
            if v != d.source and abs(p.get(v, 0.0) - net_in(w, v)) > tol:
                problems.append((i, v, "processing", p.get(v, 0.0), net_in(w, v)))
    return problems


class TestFlowBalance:
    """Every rounded purchase answer's flows balance, unprocessed part
    included: the checks `verify_edge_solution` makes that hold under
    either processing rule. The greedy's answers carry no unprocessed part
    (their detour is reported in meta only), so they are not checked here."""

    def test_budgeted_rounding(self):
        branches = set()
        for seed, inst in [*_budgeted_instances(24), (1, _relay_star())]:
            sol = round_budgeted_purchase(inst, rng_seed=seed)
            branches.add(sol.meta.get("branch"))
            assert not _balance_problems(inst, sol), seed
        assert {"single", "full-set", "sampled"} <= branches

    def test_min_rounding(self):
        scaled = 0
        for seed, inst in enumerate(_random_purchase_instances(16)):
            try:
                lp_sol, _ = solve_purchase_lp(inst, "min")
            except InfeasibleError:
                continue
            sol = round_min_purchase(inst, lp_sol, delta=0.2, rng_seed=seed)
            scaled += sol.meta["gamma"] > 1.0
            assert not _balance_problems(inst, sol), seed
        assert scaled > 0   # the global scaling keeps the balance too


def _budgeted_instances(count):
    # every third draw sells all its candidates at one potential, so their
    # bounds tie and the scan order falls back to node order
    for seed in range(count):
        n = 5 + seed % 6
        parsed = gen_random_purchase(
            n, 0.45, potential_cap=(3, 3) if seed % 3 == 0 else (1, 6),
            n_candidates=min(4, n - 1), n_demands=2 + seed % 2, seed=seed,
            budget=2.0 + seed % 3, directed=seed % 2 == 0)
        yield seed, parsed.purchase()


def _document(sol, inst):
    return json.dumps(solution_document(sol, net=inst.net), sort_keys=True)


class TestBestSingleVertex:
    """`round_budgeted_purchase` tries single vertices best bound first and
    skips those that cannot win; the exhaustive scan in node order is the
    reference."""

    def test_pruned_scan_returns_the_exhaustive_answer(self, monkeypatch):
        real = purchase._best_single
        skipped = ties = 0
        for seed, inst in _budgeted_instances(36):
            values = {}

            def reference(cands, bound, evaluate):
                def record(v):
                    sol = evaluate(v)
                    values[v] = sol.value
                    return sol
                return best_single_exhaustive(cands, record)

            with monkeypatch.context() as m:
                m.setattr(purchase, "_best_single", reference)
                want = round_budgeted_purchase(inst, rng_seed=seed)
            calls = []

            def counted(cands, bound, evaluate):
                return real(cands, bound,
                            lambda v: calls.append(v) or evaluate(v))

            with monkeypatch.context() as m:
                m.setattr(purchase, "_best_single", counted)
                got = round_budgeted_purchase(inst, rng_seed=seed)
            assert _document(got, inst) == _document(want, inst), seed

            total = sum(d.amount for d in inst.demands)
            for v, value in values.items():
                ub = min(inst.potential[v], total)
                assert value <= ub + feas_slack(ub), (seed, v)
            skipped += len(values) - len(calls)
            if values:
                top = max(values.values())
                ties += sum(val == top for val in values.values()) > 1
        # the pruning and the tie-break both ran
        assert skipped > 0 and ties > 0

    def test_equal_values_go_to_the_earlier_vertex(self):
        # b's bound (5) is tried first, but a (bound 2) ties it at 2 and
        # comes first in node order, so a wins as in the exhaustive scan
        net = FlowNetwork("sabt", [("s", "a", 9.0), ("a", "t", 9.0),
                                   ("s", "b", 2.0), ("b", "t", 2.0)], {})
        inst = PurchaseInstance(net, [Demand("s", "t", 10.0)],
                                potential={"a": 2.0, "b": 5.0},
                                cost={"a": 1.0, "b": 1.0}, budget=1.0)
        r = round_budgeted_purchase(inst, rng_seed=1)
        assert r.purchased == {"a"} and r.value == 2.0
        assert r.meta["branch"] == "single"


class TestValidation:
    def test_budgeted_needs_budget(self, bud1):
        net, demands, potential, cost, _ = bud1
        inst = PurchaseInstance(net, demands, potential=potential, cost=cost)
        rep = validate_purchase_instance(inst, "budgeted")
        assert not rep.ok
        assert any("budget" in p for p in rep.problems)

    @pytest.mark.parametrize("solve", [
        lambda inst: round_budgeted_purchase(inst, rng_seed=1),
        greedy_budgeted_single_source,
    ], ids=["rounding", "greedy"])
    def test_infinite_budget_rejected(self, bud1, solve):
        net, demands, potential, cost, _ = bud1
        inst = PurchaseInstance(net, demands, potential=potential, cost=cost,
                                budget=math.inf)
        with pytest.raises(StructuralError, match="budget inf"):
            solve(inst)

    def test_rejects_unknown_and_unbounded(self, bud1):
        net, demands, _, _, _ = bud1
        inst = PurchaseInstance(net, [Demand("s", "t", math.inf)],
                                potential={"zz": 1.0, "a": -2.0},
                                cost={"a": math.inf})
        rep = validate_purchase_instance(inst, "min")
        text = " ".join(rep.problems)
        assert "unknown node 'zz'" in text
        assert "potential" in text and "cost" in text
        assert "finite amount" in text


def _pinned_objective(inst, mode, fix):
    try:
        sol, _ = solve_purchase_lp(inst, mode, budget_cap=None, fix=fix)
    except InfeasibleError:
        return None
    return sol.objective


def _random_purchase_instances(count):
    # small graphs, so that some candidates sit on demand endpoints
    for seed in range(count):
        n = 4 + seed % 4
        parsed = gen_random_purchase(n, 0.5, n_candidates=min(4, n - 1),
                                     n_demands=2, seed=seed, budget=2.0,
                                     directed=seed % 2 == 0)
        yield parsed.purchase()


class TestPinnedLP:
    # A candidate pinned to 0 has no leg columns, so a pinned LP must have
    # the optimum of the same LP over an instance that sells only the
    # candidates left open.

    def test_closed_candidates_change_no_optimum(self):
        rng = random.Random(606)
        for inst in _random_purchase_instances(40):
            names = inst.candidates()
            subsets = [{v} for v in names]
            subsets += [set(rng.sample(names, rng.randint(0, len(names))))
                        for _ in range(2)]
            for sub in subsets:
                fix = {v: (1.0 if v in sub else 0.0) for v in names}
                pruned = PurchaseInstance(
                    inst.net, inst.demands,
                    {v: c for v, c in inst.potential.items() if v in sub},
                    inst.cost, inst.budget)
                for mode in ("min", "budgeted"):
                    got = _pinned_objective(inst, mode, fix)
                    want = _pinned_objective(pruned, mode, fix)
                    if want is None:
                        assert got is None, (mode, sorted(sub))
                    else:
                        assert got == pytest.approx(want, abs=1e-9), \
                            (mode, sorted(sub))

    def test_one_open_candidate_has_one_set_of_legs(self):
        for inst in _random_purchase_instances(12):
            names = inst.candidates()
            for v in names:
                model = build_purchase_lp(inst, "budgeted", fix={v: 1.0})
                # v's x, then per demand a w and a g column on each arc its
                # leg rule leaves open to them, and one p, at v; on a
                # demand's endpoint one of the two legs is barred everywhere
                open_arcs = sum(bar.count(False) for d in inst.demands
                                for bar in legs(inst.net, d.source, d.sink, v))
                assert model.n_vars == 1 + open_arcs + len(inst.demands)
                sol, _ = solve_purchase_lp(inst, "budgeted", fix={v: 1.0})
                assert sorted(sol.x) == sorted(names)
                assert {u for _, u in sol.served} <= {v}

    def test_x_lists_the_closed_candidates_at_zero(self):
        for inst in _random_purchase_instances(12):
            names = inst.candidates()
            closed = set(names[1::2])
            fix = {v: 0.0 if v in closed else 1.0 for v in names}
            for mode in ("min", "budgeted"):
                model = build_purchase_lp(inst, mode, fix=fix)
                assert list(model.info["x"]) == [v for v in names if v not in closed]
                try:
                    sol, _ = solve_purchase_lp(inst, mode, budget_cap=None, fix=fix)
                except InfeasibleError:
                    continue
                assert list(sol.x) == names and sol.x == fix


def _reference_families():
    """Seeded purchase instances for the arc-leg reference, by family."""
    gadgets = [("setcover", {"sets": [[1, 2], [2, 3]], "universe": [1, 2, 3]}),
               ("maxkcover", {"sets": [[1, 2], [2, 3], [3, 4]],
                              "universe": [1, 2, 3, 4], "k": 1}),
               ("vertexcover", {"edges": [("a", "b"), ("b", "c"), ("c", "a"),
                                          ("c", "d")]}),
               ("bisection", {"edges": [("a", "b"), ("a", "c"), ("a", "d"),
                                        ("b", "c"), ("b", "d"), ("c", "d")]})]
    return {
        "n4-7": list(_random_purchase_instances(16)),
        "n10-12": [gen_random_purchase(10 + 2 * (seed % 2), 0.35, n_candidates=4,
                                       n_demands=2 + seed % 2, seed=seed,
                                       budget=3.0, directed=seed % 3 != 0).purchase()
                   for seed in range(4)],
        "gadgets": [gen_reduction_instance(kind, spec).purchase()
                    for kind, spec in gadgets],
    }


def _relaxation(solve, inst, mode, cap, fix):
    try:
        return solve(inst, mode, cap, fix)
    except InfeasibleError:
        return "infeasible"


def _reference(inst, mode, cap, fix):
    res = solve_lp(arc_leg_purchase_lp(inst, mode, budget_cap=cap, fix=fix))
    return res.objective if res.status == "optimal" else res.status


@pytest.mark.parametrize("family", ["n4-7", "n10-12", "gadgets"])
def test_relaxation_matches_the_arc_leg_reference(family):
    # the commodity LP is a reformulation of the arc-leg LP: same optimum,
    # free and pinned, in both modes, endpoint candidates included
    rng = random.Random(1414)
    for inst in _reference_families()[family]:
        if inst.budget is None:
            inst = replace(inst, budget=2.0)
        names = inst.candidates()
        pins = [None, dict.fromkeys(names, 1.0)]
        pins += [{u: float(u == v) for u in names} for v in names]
        pins.append({v: float(rng.random() < 0.5) for v in names})
        for mode in ("min", "budgeted"):
            for fix in pins:
                cap = inst.budget / 2.0 if mode == "budgeted" and fix is None else None
                got = _relaxation(lambda *a: solve_purchase_lp(*a)[0].objective,
                                  inst, mode, cap, fix)
                want = _reference(inst, mode, cap, fix)
                where = (family, mode, fix)
                if isinstance(want, str):
                    assert got == want, where
                else:
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), where


def _random_max_flow_case(rng, trial):
    """A random network, its group capacities, a sink and a feed, as the
    greedy's oracle hands them to `_max_flow`: directed or undirected
    edges, antiparallel directed arcs included, and a feeder into each of
    a few nodes, now and then the sink itself."""
    n = rng.randint(2, 7)
    names = [f"v{i}" for i in range(n)]
    directed = trial % 2 == 0
    pairs = list(itertools.permutations(names, 2) if directed
                 else itertools.combinations(names, 2))
    edges = [(a, b, rng.choice([0.0, float(rng.randint(1, 4)), rng.uniform(0.05, 5.0)]))
             for a, b in rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))]
    net = FlowNetwork(names, edges, directed=directed)
    sink = rng.choice(names)
    fed = rng.sample(names, rng.randint(1, n))
    if trial % 3 == 0 and sink not in fed:
        fed.append(sink)   # a feeder straight into the sink
    feed = {p: rng.choice([float(rng.randint(1, 3)), rng.uniform(0.05, 4.0)]) for p in fed}
    return net, [c for _, _, c in edges], sink, feed


class TestMaxFlow:
    def test_matches_the_lp_reference(self):
        rng = random.Random(707)
        for trial in range(120):
            net, caps, sink, feed = _random_max_flow_case(rng, trial)
            value, phi = _max_flow(net, caps, feed, sink)
            # the reference reads the same flow problem as plain arcs, the
            # feeders leaving a '+pool' node
            arcs = [(a.tail, a.head, a.group) for a in net.arcs]
            arcs += [("+pool", p, len(caps) + j) for j, p in enumerate(feed)]
            want, _ = max_flow_lp([*net.nodes, "+pool"], arcs, caps + list(feed.values()),
                                  "+pool", sink)
            assert value == pytest.approx(want, abs=1e-9), trial
            assert len(phi) == len(caps) + len(feed), trial
            intake = phi[len(caps):]
            for (p, cap), f in zip(feed.items(), intake):
                assert 0.0 <= f <= cap, (trial, p)
            assert sum(intake) == pytest.approx(value, abs=1e-9), trial
            # and phi is a feasible flow of that value: within each group's
            # capacity, one way only on a directed arc, and conserved at
            # every node but the sink
            net_out = {v: 0.0 for v in net.nodes}
            for arcs_, cap, f in zip(net.groups, caps, phi):
                a = net.arcs[arcs_[0]]
                assert (-cap if len(arcs_) == 2 else 0.0) <= f <= cap, (trial, a)
                net_out[a.tail] += f
                net_out[a.head] -= f
            for p, f in zip(feed, intake):
                net_out[p] -= f
            for v in net.nodes:
                if v != sink:
                    assert net_out[v] == pytest.approx(0.0, abs=1e-9), (trial, v)
            assert net_out[sink] == pytest.approx(-value, abs=1e-9), trial

    def test_reroutes_through_a_reverse_residual(self):
        # The one shortest path s-a-b-t blocks both longer paths; the second
        # augmentation must send flow back along b->a to reach value 2.
        edges = [("s", "a"), ("a", "b"), ("b", "t"), ("a", "c"), ("c", "d"), ("d", "t"),
                 ("s", "e"), ("e", "f"), ("f", "b")]
        net = FlowNetwork(sorted({u for e in edges for u in e}),
                          [(u, v, 1.0) for u, v in edges])
        value, phi = _max_flow(net, [1.0] * len(edges), {"s": 3.0}, "t")
        assert value == pytest.approx(2.0, abs=1e-12)
        assert phi[1] == pytest.approx(0.0, abs=1e-12)
        assert phi[-1] == pytest.approx(2.0, abs=1e-12)


def _vertex_cover_brute(inst):
    """Cheapest purchase subset the coverage LP can serve fully, by
    exhaustive subset search with pinned integral x."""
    names = inst.candidates()
    for r in range(len(names) + 1):
        for sub in combinations(names, r):
            fix = {v: (1.0 if v in sub else 0.0) for v in names}
            try:
                solve_purchase_lp(inst, "min", fix=fix)
            except InfeasibleError:
                continue
            return sum(inst.price(v) for v in sub)
    return None


def test_triangle_cover_needs_two_vertices():
    from pflow.generators import gen_reduction_instance
    k3 = gen_reduction_instance(
        "vertexcover", {"edges": [("a", "b"), ("b", "c"), ("a", "c")]})
    assert _vertex_cover_brute(k3.purchase()) == 2.0


class TestValueFunctionShape:
    def test_served_flow_not_submodular(self):
        # Five nodes, crossing demands, three candidates. Buying t lets the
        # t->s demand depart already processed over t->m1->s, which vacates
        # the unit arc m1->m2 for the second demand to process on arrival
        # at m2. So t's marginal value over {m0, m2} exceeds its marginal
        # over {m0}: end-to-end served flow is not submodular in the
        # purchase set, and a plain greedy on it has no such guarantee.
        net = FlowNetwork(
            ["s", "m0", "m1", "m2", "t"],
            [("m0", "s", 2.0), ("m1", "s", 2.0), ("m1", "m2", 1.0),
             ("m2", "s", 1.0), ("m2", "m0", 2.0), ("m2", "t", 1.0),
             ("t", "m1", 2.0)],
            {v: 0.0 for v in "s m0 m1 m2 t".split()})
        demands = [Demand("t", "s", 3.0), Demand("m1", "m2", 1.0)]
        potential = {"m0": 3.0, "m2": 3.0, "t": 3.0}

        expected = {
            frozenset(): 0.0,
            frozenset({"m0"}): 1.0,
            frozenset({"m2"}): 1.0,
            frozenset({"t"}): 2.0,
            frozenset({"m0", "m2"}): 1.0,
            frozenset({"m0", "t"}): 2.0,
            frozenset({"m2", "t"}): 3.0,
            frozenset({"m0", "m2", "t"}): 3.0,
        }
        inst = PurchaseInstance(net, demands, potential=potential,
                                cost={v: 1.0 for v in potential}, budget=99.0)
        names = inst.candidates()
        for sub, want in expected.items():
            by_enum = served_with_purchases(net, demands, potential, set(sub))
            assert by_enum == pytest.approx(want, abs=1e-7), sorted(sub)
            fix = {v: (1.0 if v in sub else 0.0) for v in names}
            by_lp, _ = solve_purchase_lp(inst, "budgeted",
                                         budget_cap=None, fix=fix)
            assert by_lp.objective == pytest.approx(want, abs=1e-6), sorted(sub)

        m_small = expected[frozenset({"m0", "t"})] - expected[frozenset({"m0"})]
        m_large = (expected[frozenset({"m0", "m2", "t"})]
                   - expected[frozenset({"m0", "m2"})])
        assert m_small == 1.0 and m_large == 2.0
        assert m_large > m_small

    def test_greedy_oracle_is_submodular(self):
        # The greedy maximizes processable flow into the source instead;
        # spot-check the diminishing-returns inequality it depends on.
        rng = random.Random(505)
        for _ in range(60):
            n = rng.randint(3, 6)
            names = [f"v{i}" for i in range(n)]
            directed = rng.random() < 0.5
            pairs = [(a, b) for a in names for b in names if a != b]
            if not directed:
                pairs = [(a, b) for a, b in pairs if a < b]
            rng.shuffle(pairs)
            m = rng.randint(n - 1, min(len(pairs), 3 * n))
            edges = [(a, b, float(rng.randint(1, 4))) for a, b in pairs[:m]]
            net = FlowNetwork(names, edges, {}, directed=directed)
            k = min(rng.randint(2, 4), n)
            cand = rng.sample(names, k)
            pot = {v: float(rng.randint(1, 3)) for v in cand}
            src = rng.choice(names)
            sink = names[0] if names[0] != src else names[1]
            inst = PurchaseInstance(net, [Demand(src, sink, 10.0)],
                                    potential=pot,
                                    cost={v: 1.0 for v in cand}, budget=99.0)
            f = _ProcessingFlowOracle(inst, src)
            vals = {}
            for r in range(k + 1):
                for combo in itertools.combinations(sorted(cand), r):
                    vals[frozenset(combo)] = f(combo)
            for small in vals:
                for big in vals:
                    if not (small < big):
                        continue
                    for y in cand:
                        if y in big:
                            continue
                        gain_small = vals[small | {y}] - vals[small]
                        gain_big = vals[big | {y}] - vals[big]
                        assert gain_big <= gain_small + 1e-7
