import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import pflow.lp
from pflow.generators import gen_random_instance, gen_random_purchase
from pflow.decompose import decompose
from pflow.lp import (LPModel, LPResult, Objective, WalkFold, WalkMaster, build_edge_lp,
                      master_walks, solve_edge_lp, solve_lp, solve_walk_master, write_mps)
from pflow.model import (Demand, EdgeFlowSolution, FlowNetwork, InfeasibleError,
                         PurchaseInstance, ResourceLimitError, StructuralError, WalkEntry,
                         validate_instance, verify_edge_solution, verify_walk_solution)
import pflow.mwu
from pflow.mwu import MWUConfig, mwu_solve
from pflow.purchase import build_purchase_lp

from oracles import (add_constraint, column_uses, edge_lp_optimum, legs, master_instances,
                     mixed_routing_instances, net_outflow_routing_lp, processing_vertices,
                     row_by_row_edge_lp, row_by_row_purchase_lp, seeded_instances,
                     shortest_processing_2walk, solve_lp_linprog, walk_lp_optimum)


def test_mandatory_relay_caps_throughput(inst_line):
    net, demands = inst_line
    sol, res = solve_edge_lp(net, demands)
    assert res.status == "optimal"
    assert abs(sol.objective - 3.0) < 1e-9
    assert abs(sol.delivered(net, demands, 0) - 3.0) < 1e-9
    assert sol.meta["lp_iterations"] == res.iterations
    for g, load in sol.group_loads(net).items():
        assert load <= net.group_capacity[g] + 1e-9
    assert sol.node_loads()["a"] <= 3.0 + 1e-9


def test_detour_instance_needs_double_visit(inst_loop):
    net, demands = inst_loop
    sol, _ = solve_edge_lp(net, demands)
    assert abs(sol.objective - 2.0) < 1e-9


def test_objective_counts_net_source_outflow():
    # a return arc to the source must not let flow be counted twice
    net = FlowNetwork(
        "sat", [("s", "a", 10.0), ("a", "t", 10.0), ("a", "s", 10.0)],
        {"a": 3.0})
    sol, _ = solve_edge_lp(net, [Demand("s", "t")])
    assert abs(sol.objective - 3.0) < 1e-9


def test_demand_amount_caps_delivery(inst_line):
    net, _ = inst_line
    demands = [Demand("s", "t", 2.0)]
    sol, _ = solve_edge_lp(net, demands)
    assert abs(sol.objective - 2.0) < 1e-9


def test_zero_processing_capacity_means_zero_flow():
    net = FlowNetwork("st", [("s", "t", 5.0)])
    sol, _ = solve_edge_lp(net, [Demand("s", "t")])
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_unknown_objective_kind_rejected(inst_line):
    net, demands = inst_line
    with pytest.raises(ValueError):
        build_edge_lp(net, demands, Objective(kind="fastest"))


class TestCongestion:
    # forced single route: loads are demand/capacity by inspection, so the
    # expected values below are plain arithmetic
    def net(self):
        return FlowNetwork("sat", [("s", "a", 10.0), ("a", "t", 10.0)],
                           {"a": 3.0})

    def test_relay_is_the_bottleneck(self):
        sol, res = solve_edge_lp(self.net(), [Demand("s", "t", 3.0)],
                                 Objective(kind="min-max-congestion"))
        assert abs(res.objective - 1.0) < 1e-9

    def test_scales_with_requirement(self):
        _, res = solve_edge_lp(self.net(), [Demand("s", "t", 2.0)],
                               Objective(kind="min-max-congestion"))
        assert abs(res.objective - 2.0 / 3.0) < 1e-9

    def test_weighted_sum_of_ratios(self):
        obj = Objective(kind="min-weighted-congestion")
        _, res = solve_edge_lp(self.net(), [Demand("s", "t", 3.0)], obj)
        assert abs(res.objective - (0.3 + 0.3 + 1.0)) < 1e-9

    def test_edge_weights_reweight_ratios(self):
        obj = Objective(kind="min-weighted-congestion", edge_weights={0: 2.0})
        _, res = solve_edge_lp(self.net(), [Demand("s", "t", 3.0)], obj)
        assert abs(res.objective - (0.6 + 0.3 + 1.0)) < 1e-9

    def test_requirement_without_processing_is_infeasible(self):
        net = FlowNetwork("sat", [("s", "a", 10.0), ("a", "t", 10.0)])
        with pytest.raises(InfeasibleError):
            solve_edge_lp(net, [Demand("s", "t", 1.0)],
                          Objective(kind="min-max-congestion"))

    def test_uncapped_demand_rejected(self):
        for kind in ("min-max-congestion", "min-weighted-congestion"):
            for solve in (build_edge_lp, solve_edge_lp):
                with pytest.raises(ValueError, match="finite demand amounts"):
                    solve(self.net(), [Demand("s", "t")], Objective(kind=kind))

    @pytest.mark.parametrize("weights, match", [
        ({"edge_weights": {0: -1.0}}, "negative or not finite"),
        ({"edge_weights": {0: math.nan}}, "negative or not finite"),
        ({"node_weights": {"a": math.inf}}, "negative or not finite"),
        ({"edge_weights": {2: 1.0}}, "names no bandwidth group"),
        ({"edge_weights": {"0": 1.0}}, "names no bandwidth group"),
        ({"node_weights": {"b": 1.0}}, "names no node"),
    ])
    @pytest.mark.parametrize("solve", [build_edge_lp, solve_edge_lp])
    def test_bad_weights_rejected(self, weights, match, solve):
        # a negative weight made the s->a->t objective 1.0 (-0.3 + 0.3 + 1.0);
        # a weight keyed by no group or node was ignored
        obj = Objective(kind="min-weighted-congestion", **weights)
        with pytest.raises(ValueError, match=match):
            solve(self.net(), [Demand("s", "t", 3.0)], obj)

    def test_min_max_master_shares_the_iteration_budget(self, monkeypatch):
        # every solve of the master takes fewer than the whole run's
        # iterations less one, so only a shared budget of that size ends it
        inst = gen_random_instance(8, 0.5, node_cap=(0, 4), n_demands=4, seed=4,
                                   amounts=(1, 4))
        obj = Objective(kind="min-max-congestion")
        real, nits = pflow.lp._run, []

        def counting(highs, limit):
            status, nit, obj = real(highs, limit)
            nits.append(nit)
            return status, nit, obj

        monkeypatch.setattr(pflow.lp, "_run", counting)
        _, res = solve_edge_lp(inst.net, inst.demands, obj)
        assert len(nits) >= 3 and sum(nits) == res.iterations
        assert max(nits) < res.iterations - 1
        monkeypatch.setattr(pflow.lp, "MAXITER", res.iterations - 1)
        with pytest.raises(ResourceLimitError, match="iteration limit"):
            solve_edge_lp(inst.net, inst.demands, obj)


def _lp(sense, rows, bounds=None, objective=None):
    """A hand-sized model: rows are (coeffs, sense, rhs); one column per
    bound pair (default two columns in [0, inf))."""
    m = LPModel(sense=sense)
    for lo, hi in [(0.0, math.inf)] * 2 if bounds is None else bounds:
        m.add_var(lo, hi)
    for coeffs, row_sense, rhs in rows:
        add_constraint(m, coeffs, row_sense, rhs)
    m.set_objective(objective if objective is not None else {0: 1.0, 1: 1.0})
    return m


@pytest.mark.parametrize("model, status, objective, x", [
    # max x0 + x1 with x0 + 2 x1 <= 4, x0 - x1 == 1, x1 >= 0.5: x = (2, 1)
    (_lp("max", [([(0, 1.0), (1, 2.0)], "<=", 4.0), ([(0, 1.0), (1, -1.0)], "==", 1.0),
                 ([(1, 1.0)], ">=", 0.5)]), "optimal", 3.0, [2.0, 1.0]),
    # min x0 + 3 x1 with x0 + x1 >= 2, x0 <= 1.5: x = (1.5, 0.5)
    (_lp("min", [([(0, 1.0), (1, 1.0)], ">=", 2.0), ([(0, 1.0)], "<=", 1.5)],
         objective={0: 1.0, 1: 3.0}), "optimal", 3.0, [1.5, 0.5]),
    (_lp("max", [([(0, 1.0), (1, 1.0)], "<=", 1.0), ([(0, 1.0)], ">=", 2.0)]),
     "infeasible", math.nan, None),
    (_lp("max", [([(0, 1.0), (1, -1.0)], "<=", 1.0)]), "unbounded", math.inf, None),
    (_lp("max", [([], "<=", 1.0), ([], ">=", -1.0), ([], "==", 0.0)], bounds=[],
         objective={}), "optimal", 0.0, []),
    (_lp("min", [([], ">=", 2.0)], bounds=[], objective={}), "infeasible", math.nan, None),
    (_lp("max", [([(0, 1.0), (1, 1.0)], "<=", 4.0)], bounds=[(2.0, 1.0), (0.0, math.inf)]),
     "infeasible", math.nan, None),
    # duplicate entries of a row add up: 2 x0 + x1 <= 4 and x0 == 0
    (_lp("max", [([(0, 1.0), (0, 1.0), (1, 1.0)], "<=", 4.0),
                 ([(0, 1.0), (0, -1.0), (0, 1.0)], "==", 0.0)]), "optimal", 4.0, [0.0, 4.0]),
], ids=["mixed-rows", "min", "infeasible", "unbounded", "empty-feasible",
        "empty-infeasible", "crossed-bounds", "duplicate-entries"])
def test_solve_lp(model, status, objective, x):
    res = solve_lp(model)
    assert res.status == status
    if math.isnan(objective):
        assert math.isnan(res.objective)
    else:
        assert res.objective == pytest.approx(objective, abs=1e-9)
    if x is None:
        assert res.x is None
    else:
        assert res.x.tolist() == pytest.approx(x, abs=1e-9)


_ROW = ([(0, 1.0), (1, 1.0)], "<=", 1.0)


@pytest.mark.parametrize("rows, bounds, objective", [
    ([([(0, 1.0), (1, 1.0)], "<=", math.nan)], None, None),
    ([([(0, 1.0), (1, 1.0)], "<=", math.inf)], None, None),
    ([([(0, 1.0), (1, 1.0)], ">=", -math.inf)], None, None),
    ([([(0, math.inf), (1, 1.0)], "<=", 1.0)], None, None),
    ([([(0, math.nan), (1, 1.0)], "==", 1.0)], None, None),
    ([_ROW], None, {0: math.inf, 1: 1.0}),
    ([_ROW], None, {0: math.nan}),
    ([_ROW], [(math.nan, 1.0), (0.0, 1.0)], None),
    ([_ROW], [(0.0, math.nan), (0.0, 1.0)], None),
], ids=["nan-rhs", "inf-rhs", "minus-inf-rhs", "inf-coefficient", "nan-coefficient",
        "inf-objective", "nan-objective", "nan-lower-bound", "nan-upper-bound"])
def test_non_finite_input_rejected(rows, bounds, objective):
    # HiGHS takes these without complaint and answers wrongly, so they never reach it
    with pytest.raises(ValueError):
        solve_lp(_lp("max", rows, bounds, objective))


def test_finite_input_whose_sum_overflows_is_solved():
    # two finite rhs of 1e308 sum to inf, and the model is still accepted
    # and solved: x0 + x1 <= 3 binds
    m = _lp("max", [([(0, 1.0)], "<=", 1e308), ([(1, 1.0)], "<=", 1e308),
                    ([(0, 1.0), (1, 1.0)], "<=", 3.0)])
    assert sum(m.rhs.tolist()) == math.inf
    res = solve_lp(m)
    assert res.status == "optimal" and res.objective == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("j", [-1, 2], ids=["minus-one", "n-vars"])
def test_column_index_out_of_range_rejected(j):
    # two columns: index -1 must not wrap around to the last one
    m = _lp("max", [([(0, 1.0)], "<=", 1.0)])
    with pytest.raises(ValueError, match="outside"):
        add_constraint(m, [(0, 1.0), (j, 1.0)], "<=", 2.0)
    with pytest.raises(ValueError, match="outside"):
        m.set_objective({0: 1.0, j: 1.0})
    assert (m.n_rows, m.starts.tolist(), m.objective) == (1, [0, 1], {0: 1.0, 1: 1.0})


@pytest.mark.parametrize("cols, ends, senses", [
    ([0, -1], [2], ["<="]), ([0, 2], [2], ["<="]), ([1, 0, 1], [3], ["<="]),
    ([0, 1], [2], ["<>"]), ([0, 1], [3], ["<="]), ([0, 1], [2, 1], ["<=", "<="]),
], ids=["minus-one", "n-vars", "twice", "bad-sense", "past-the-end", "backwards"])
def test_bulk_rows_are_checked_before_highs(cols, ends, senses, monkeypatch, tmp_path):
    # add_rows writes as built; solve_lp and write_mps reject the model
    # before HiGHS or the file sees it, where HiGHS would have refused to
    # load it and the solve would have read "infeasible"
    m = _lp("max", [([(0, 1.0)], "<=", 1.0)])
    m.add_rows(cols, [1.0] * len(cols), ends, senses, [2.0] * len(ends))
    monkeypatch.setattr(pflow.lp, "_highs", lambda: pytest.fail("HiGHS was called"))
    with pytest.raises(ValueError):
        solve_lp(m)
    path = tmp_path / "bad.mps"
    with pytest.raises(ValueError):
        write_mps(m, str(path))
    assert not path.exists()


def test_iteration_limit_raises(monkeypatch):
    inst = gen_random_instance(8, 0.5, n_demands=3, seed=3, amounts=(1, 4))
    model = build_edge_lp(inst.net, inst.demands)
    assert solve_lp(model).iterations > 1
    monkeypatch.setattr(pflow.lp, "MAXITER", 1)
    with pytest.raises(ResourceLimitError, match="iteration limit 1 exhausted"):
        solve_lp(model)


def _outcome(res, cols=None):
    """An LPResult (and a master's columns) in a form compared bit for bit."""
    return (res.status, res.objective, res.iterations,
            None if res.x is None else res.x.tobytes(), cols)


def test_a_pooled_highs_solves_as_new_after_an_iteration_limit(monkeypatch):
    # solve_lp gives its HiGHS object back to the pool even when the
    # iteration limit ends the solve; the next solve on that object must
    # match a solve in a fresh pool bit for bit (a basis left from the
    # stopped solve would change its iterations), and reach linprog's optimum
    inst = gen_random_instance(8, 0.5, n_demands=3, seed=3, amounts=(1, 4))
    model = build_edge_lp(inst.net, inst.demands)
    monkeypatch.setattr(pflow.lp, "_POOL", [])
    fresh = solve_lp(model)
    monkeypatch.setattr(pflow.lp, "_POOL", [])
    with monkeypatch.context() as limited:
        limited.setattr(pflow.lp, "MAXITER", 1)
        with pytest.raises(ResourceLimitError, match="iteration limit 1 exhausted"):
            solve_lp(model)
    pooled = list(pflow.lp._POOL)
    assert len(pooled) == 1
    res = solve_lp(model)
    assert pflow.lp._POOL == pooled and pooled[0] is pflow.lp._POOL[0]
    assert _outcome(res) == _outcome(fresh) and res.iterations > 1
    ref = solve_lp_linprog(model)
    assert res.status == ref.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, rel=1e-9)


def test_interleaved_solves_on_pooled_highs_match_fresh_ones(monkeypatch):
    # as in the purchase greedy, walk masters and solve_lp calls take turns
    # on the pooled HiGHS object: each result must be bit-equal to the same
    # call made first in a fresh pool
    pur = gen_random_purchase(8, 0.5, n_candidates=3, n_demands=2, seed=1,
                              budget=2.0).purchase()
    edge = gen_random_instance(8, 0.5, node_cap=(1, 4), n_demands=3, seed=3,
                               amounts=(1, 4))
    calls = [
        lambda: _outcome(*solve_walk_master(pur.net, pur.demands, paths=True)[:2]),
        lambda: _outcome(solve_lp(build_purchase_lp(pur, "budgeted", budget_cap=1.0))),
        lambda: _outcome(*solve_walk_master(edge.net, edge.demands)[:2]),
        lambda: _outcome(solve_lp(build_purchase_lp(pur, "min"))),
        lambda: _outcome(*solve_walk_master(edge.net, edge.demands,
                                            objective=Objective("min-max-congestion"))[:2]),
        lambda: _outcome(solve_lp(build_edge_lp(edge.net, edge.demands))),
    ]
    fresh = []
    for call in calls:
        monkeypatch.setattr(pflow.lp, "_POOL", [])
        fresh.append(call())
    assert {out[0] for out in fresh} == {"optimal"}
    monkeypatch.setattr(pflow.lp, "_POOL", [])
    for _ in range(2):
        assert [call() for call in calls] == fresh
        assert len(pflow.lp._POOL) == 1


def test_the_pool_keeps_only_plain_highs(monkeypatch, inst_line):
    # a stand-in for `_highs` that completes its solves is never pooled:
    # the pool holds plain `_Highs` objects only, and they solve as before
    real = pflow.lp._highs
    made = []

    class Wrapper:
        def __init__(self):
            self.highs = real()
            made.append(self)

        def __getattr__(self, name):
            return getattr(self.highs, name)

    net, demands = inst_line
    monkeypatch.setattr(pflow.lp, "_POOL", [])
    want = _outcome(*solve_walk_master(net, demands)[:2])
    monkeypatch.setattr(pflow.lp, "_highs", Wrapper)
    assert _outcome(*solve_walk_master(net, demands)[:2]) == want
    assert made and all(type(h) is pflow.lp._Highs for h in pflow.lp._POOL)
    monkeypatch.setattr(pflow.lp, "_highs", real)
    assert _outcome(*solve_walk_master(net, demands)[:2]) == want
    assert len(pflow.lp._POOL) == 1 and type(pflow.lp._POOL[0]) is pflow.lp._Highs


def _edge_models(kind, build=build_edge_lp):
    for seed in range(3):
        inst = gen_random_instance(7, 0.5, node_cap=(0, 4), n_demands=3, seed=seed,
                                   directed=seed % 2 == 0, amounts=(1, 4))
        yield build(inst.net, inst.demands, Objective(kind=kind))


def _routing_models():
    for seed in range(3):
        inst = gen_random_instance(7, 0.5, n_demands=3, seed=seed, directed=seed % 2 == 0)
        yield net_outflow_routing_lp(inst.net, inst.demands, inst.net.group_capacity)


@pytest.mark.parametrize("halved", [False, True], ids=["full", "halved"])
def test_routing_lp_matches_the_net_outflow_reference(halved):
    # unlike the reference, the path master never routes into the source or
    # out of the sink: same optimum, at full bandwidth and at the B/2 the
    # purchase greedy routes over
    kinds = set()
    for net, demands in mixed_routing_instances():
        cap = [c / 2.0 if halved else c for c in net.group_capacity]
        capped = FlowNetwork(net.nodes, [(u, v, c) for (u, v, _), c in zip(net.edges, cap)],
                             net.node_capacity, directed=net.directed)
        got = solve_walk_master(capped, demands, paths=True)[0]
        want = solve_lp(net_outflow_routing_lp(net, demands, cap))
        assert got.status == want.status == "optimal"
        assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
        kinds |= {(net.directed, math.isfinite(d.amount)) for d in demands}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_path_master_takes_direct_arcs_and_reads_no_node_capacity():
    # s->t directly (B 1) and s->a->t (B 2), no node able to process and the
    # sink's capacity 0: the path master routes 3, and each column is a
    # simple s->t path processed at the sink
    net = FlowNetwork("sat", [("s", "t", 1.0), ("s", "a", 2.0), ("a", "t", 2.0)],
                      {"t": 0.0})
    demands = [Demand("s", "t")]
    res, cols, _ = solve_walk_master(net, demands, paths=True)
    assert res.objective == 3.0
    carried = {}
    for (i, arcs, split), x in zip(cols, res.x.tolist()):
        nodes = [net.arcs[arcs[0]].tail] + [net.arcs[a].head for a in arcs]
        assert (i, nodes[0], nodes[-1], split) == (0, "s", "t", len(arcs))
        assert len(set(nodes)) == len(nodes)
        carried[tuple(nodes)] = carried.get(tuple(nodes), 0.0) + x
    assert carried == {("s", "t"): 1.0, ("s", "a", "t"): 2.0}
    with pytest.raises(ValueError, match="total flow only"):
        solve_walk_master(net, [Demand("s", "t", 1.0)], objective=Objective("min-max-congestion"),
                          paths=True)


@pytest.mark.parametrize("kind", ["min-max-congestion", "min-weighted-congestion"])
def test_a_demand_of_amount_zero_needs_no_walk(kind):
    # s->a->t with C_a = 0: demand s->t has no processed 2-walk, but asks
    # for nothing. Alone, and beside a demand s->u that goes through b,
    # the arc LP's optimum holds
    line = FlowNetwork("sat", [("s", "a", 1.0), ("a", "t", 1.0)], {"a": 0.0})
    fork = FlowNetwork("satbu", [("s", "a", 1.0), ("a", "t", 1.0), ("s", "b", 2.0),
                                 ("b", "u", 2.0)], {"a": 0.0, "b": 1.0})
    for net, demands in ((line, [Demand("s", "t", 0.0)]),
                         (fork, [Demand("s", "t", 0.0), Demand("s", "u", 1.0)])):
        sol, res = solve_edge_lp(net, demands, Objective(kind))
        want = edge_lp_optimum(net, demands, kind)
        assert abs(res.objective - want) <= 1e-9 * max(1.0, want)
        assert verify_edge_solution(net, demands, sol).ok
        assert sol.delivered(net, demands, 0) == 0.0


@pytest.mark.parametrize("kind", ["max-total-flow", "min-max-congestion",
                                  "min-weighted-congestion"])
def test_degenerate_demand_raises_the_validators_error(kind, inst_line):
    # a demand from a node to itself has no walk: every objective raises
    # what validate_instance reports, not an error from an empty walk
    net, _ = inst_line
    demands = [Demand("s", "t", 1.0), Demand("a", "a", 1.0)]
    assert validate_instance(net, demands).problems == ["demand 1: degenerate demand a->a"]
    with pytest.raises(StructuralError, match="^demand 1: degenerate demand a->a$"):
        solve_edge_lp(net, demands, Objective(kind))


def _purchase_models(mode, fixed, build=build_purchase_lp):
    for seed in range(4):
        inst = gen_random_purchase(6 + seed % 3, 0.5, n_candidates=3, n_demands=2,
                                   seed=seed, budget=2.0).purchase()
        # pinning only the first candidate leaves some min models infeasible
        fix = {inst.candidates()[0]: 1.0} if fixed else None
        cap = inst.budget / 2.0 if mode == "budgeted" and not fixed else None
        yield build(inst, mode, budget_cap=cap, fix=fix)


def _infeasible_models():
    # every demand required in full where nothing may be processed
    net = FlowNetwork("sat", [("s", "a", 1.0), ("a", "t", 1.0)], {"a": 0.0})
    yield build_edge_lp(net, [Demand("s", "t", 1.0)], Objective(kind="min-max-congestion"))
    inst = gen_random_purchase(6, 0.5, n_candidates=3, n_demands=2, seed=0).purchase()
    yield build_purchase_lp(inst, "min", fix={})


_BOTH = {"optimal", "infeasible"}


@pytest.mark.parametrize("models, statuses", [
    (lambda: _edge_models("max-total-flow"), {"optimal"}),
    (lambda: _edge_models("min-max-congestion"), _BOTH),
    (lambda: _edge_models("min-weighted-congestion"), _BOTH),
    (_routing_models, {"optimal"}),
    (lambda: _purchase_models("min", False), {"optimal"}),
    (lambda: _purchase_models("min", True), _BOTH),
    (lambda: _purchase_models("budgeted", False), {"optimal"}),
    (lambda: _purchase_models("budgeted", True), {"optimal"}),
    (_infeasible_models, {"infeasible"}),
], ids=["edge-max-total-flow", "edge-min-max-congestion", "edge-min-weighted-congestion",
        "routing", "purchase-min", "purchase-min-fixed", "purchase-budgeted",
        "purchase-budgeted-fixed", "infeasible"])
def test_highs_backend_matches_linprog(models, statuses):
    """solve_lp runs primal simplex without presolve and linprog dual simplex
    with presolve, so they may stop at different optimal vertices: both reach
    the same status and optimum, and solve_lp's x satisfies the model."""
    seen = set()
    for model in models():
        res, ref = solve_lp(model), solve_lp_linprog(model)
        assert res.status == ref.status
        if ref.status == "optimal":
            assert res.objective == pytest.approx(ref.objective, rel=1e-9)
            _assert_satisfies(model, res.x, 1e-9)
            value = sum(coef * res.x[j] for j, coef in model.objective.items())
            assert value == pytest.approx(res.objective, rel=1e-9)
        else:
            assert res.x is None and math.isnan(res.objective)
        seen.add(res.status)
    assert seen == statuses


def _assert_satisfies(model, x, tol):
    """x holds the model's column bounds and rows to `tol`, relative to the
    bound or right-hand side where that exceeds 1."""
    lo, hi = np.asarray(model.lo), np.asarray(model.hi)
    assert np.all(x >= lo - tol * np.maximum(1.0, np.abs(lo)))
    assert np.all(x <= hi + tol * np.maximum(1.0, np.abs(hi)))
    row = np.zeros(model.n_rows)
    row_of = np.repeat(np.arange(model.n_rows), np.diff(model.starts))
    np.add.at(row, row_of, np.asarray(model.coefs) * x[model.cols])
    for k, (sense, rhs) in enumerate(zip(model.senses, model.rhs)):
        slack = tol * max(1.0, abs(rhs))
        if sense != ">=":
            assert row[k] <= rhs + slack, (k, sense, row[k], rhs)
        if sense != "<=":
            assert row[k] >= rhs - slack, (k, sense, row[k], rhs)


def read_mps(path: str) -> LPModel:
    """Parse the subset of the interchange format that write_mps emits."""
    sense = "min"
    rows: dict[str, str] = {}
    order: list[str] = []
    cols: dict[str, list[tuple[str, float]]] = {}
    rhs: dict[str, float] = {}
    bounds: dict[str, list[float]] = {}
    name = "lp"
    section = None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("*"):
                continue
            head = line.split()
            if not line[0].isspace():
                key = head[0].upper()
                if key == "NAME":
                    name = head[1] if len(head) > 1 else "lp"
                    section = None
                elif key in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "RANGES"):
                    section = key
                elif key == "ENDATA":
                    break
                else:
                    raise ValueError(f"unsupported section {key!r}")
                continue
            if section == "OBJSENSE":
                sense = "max" if head[0].upper().startswith("MAX") else "min"
            elif section == "ROWS":
                tag, rname = head[0].upper(), head[1]
                if tag not in ("N", "L", "G", "E"):
                    raise ValueError(f"unsupported row tag {tag!r}")
                rows[rname] = tag
                if tag != "N":
                    order.append(rname)
            elif section == "COLUMNS":
                cols.setdefault(head[0], []).extend(
                    (rname, float(val)) for rname, val in zip(head[1::2], head[2::2]))
            elif section == "RHS":
                for rname, val in zip(head[1::2], head[2::2]):
                    rhs[rname] = float(val)
            elif section == "BOUNDS":
                tag, cname = head[0].upper(), head[2]
                bnd = bounds.setdefault(cname, [0.0, math.inf])
                if tag == "UP":
                    bnd[1] = float(head[3])
                elif tag == "LO":
                    bnd[0] = float(head[3])
                elif tag == "MI":
                    bnd[0] = -math.inf
                elif tag == "FX":
                    bnd[:] = [float(head[3])] * 2
                else:
                    raise ValueError(f"unsupported bound tag {tag!r}")

    model = LPModel(name=name, sense=sense)
    var_idx = {c: model.add_var(*bounds.get(c, [0.0, math.inf])) for c in cols}
    per_row: dict[str, list[tuple[int, float]]] = {r: [] for r in order}
    obj: dict[int, float] = {}
    for cname, entries in cols.items():
        for rname, val in entries:
            if rows[rname] == "N":
                obj[var_idx[cname]] = val
            else:
                per_row[rname].append((var_idx[cname], val))
    sense_of = {"L": "<=", "G": ">=", "E": "=="}
    for rname in order:
        add_constraint(model, per_row[rname], sense_of[rows[rname]], rhs.get(rname, 0.0))
    model.set_objective(obj)
    return model


def test_mps_round_trip(inst_line, tmp_path):
    net, demands = inst_line
    model = build_edge_lp(net, demands)
    path = tmp_path / "line.mps"
    write_mps(model, str(path))
    text = path.read_text()
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    back = read_mps(str(path))
    assert back.sense == model.sense
    assert back.n_vars == model.n_vars
    assert back.n_rows == model.n_rows
    a = solve_lp(model)
    b = solve_lp(back)
    assert a.status == b.status == "optimal"
    assert abs(a.objective - b.objective) < 1e-9


def test_matches_walk_enumeration_on_random_instances():
    """Spot check against the independent route-enumeration optimum; the
    full corpus pass lives in the acceptance suite."""
    rng = random.Random(4242)
    checked = 0
    for _ in range(20):
        n = rng.randint(3, 5)
        names = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names if a != b]
        rng.shuffle(pairs)
        edges = [(a, b, float(rng.randint(1, 5)))
                 for a, b in pairs[:rng.randint(n - 1, 2 * n)]]
        caps = {v: float(rng.randint(0, 4)) for v in names}
        net = FlowNetwork(names, edges, caps)
        demands = [Demand(*rng.sample(names, 2))]
        sol, _ = solve_edge_lp(net, demands)
        opt = walk_lp_optimum(net, demands)
        assert abs(sol.objective - opt) < 1e-6 * max(1.0, opt)
        checked += 1
    assert checked == 20


def test_walk_master_matches_the_edge_lp_and_walk_enumeration():
    # the walk master solves max total flow; the arc formulation and the LP
    # over every enumerated 2-walk must reach its optimum, its flows and
    # their walks must verify, and its final prices must certify it: no walk
    # prices in, and their bound Σ R_i σ_i + Σ B_g y_g + Σ C_v z_v meets
    # the optimum
    kinds = set()
    for net, demands in master_instances():
        sol, res = solve_edge_lp(net, demands)
        walks = walk_lp_optimum(net, demands)
        for want in (edge_lp_optimum(net, demands), walks):
            assert abs(sol.objective - want) <= 1e-9 * max(1.0, want)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
        meta = sol.meta
        assert (meta["lp_objective"], meta["lp_iterations"]) == (res.objective,
                                                                 res.iterations)
        assert meta["columns"] == len(res.x) and meta["rounds"] >= 1
        assert meta["max_reduced_cost"] <= 1e-9
        assert meta["dual_bound"] >= walks - 1e-9
        assert abs(meta["dual_bound"] - res.objective) <= 1e-9 * max(1.0, res.objective)
        rep = verify_edge_solution(net, demands, sol)
        assert rep.ok, rep.problems
        rep = verify_walk_solution(net, demands, decompose(sol, net, demands))
        assert rep.ok, rep.problems
        kinds |= {(net.directed, math.isfinite(d.amount)) for d in demands}
        kinds |= {"zero node" for c in net.node_capacity.values() if c == 0}
        kinds |= {"zero group" for c in net.group_capacity if c == 0}
        kinds |= {"no demand"} if not demands else {"flow"} if sol.objective > 0 else set()
    assert kinds == {(True, True), (True, False), (False, True), (False, False),
                     "zero node", "zero group", "no demand", "flow"}


def test_seeded_master_matches_the_edge_lp(monkeypatch):
    # a fresh max-total-flow master starts from its multiplicative-weights
    # seed, and then runs the same rounds as an unseeded one: it reaches
    # the arc formulation's optimum and the unseeded master's, its final
    # prices price no walk in and their bound meets it, and its flows and
    # walks verify
    seen = set()
    for net, demands in seeded_instances():
        monkeypatch.setattr(pflow.lp, "SEED_ROUNDS", 0)
        empty = solve_edge_lp(net, demands)[1].objective
        monkeypatch.undo()
        sol, res = solve_edge_lp(net, demands)
        meta, want = sol.meta, edge_lp_optimum(net, demands)
        for value in (res.objective, meta["dual_bound"], empty):
            assert abs(value - want) <= 1e-9 * max(1.0, want)
        assert meta["max_reduced_cost"] <= 1e-9
        assert 0 <= meta["seed_columns"] <= meta["columns"]
        rep = verify_edge_solution(net, demands, sol)
        assert rep.ok, rep.problems
        rep = verify_walk_solution(net, demands, decompose(sol, net, demands))
        assert rep.ok, rep.problems
        if meta["seed_columns"]:
            seen.add("seeded")
        elif not demands:
            seen.add("no demand")
        elif not any(c > 0 for c in net.node_capacity.values()):
            seen.add("no processing")
        else:  # the seed priced every demand at inf
            assert res.objective == 0.0
        seen |= {"no walk" for i in range(len(demands)) if sol.delivered(net, demands, i) == 0}
        seen |= {"capped" for i, d in enumerate(demands)
                 if 0 < sol.delivered(net, demands, i) == d.amount}
        seen |= {"zero group" for c in net.group_capacity if c == 0}
        seen |= {"zero node" for c in net.node_capacity.values() if c == 0}
    assert seen == {"seeded", "no processing", "no demand", "no walk", "capped",
                    "zero group", "zero node"}


def test_seed_runs_only_on_an_empty_max_flow_master(monkeypatch):
    # the seed makes SEED_ROUNDS pricing calls before the master's rounds,
    # each of which makes one; a held master that has columns, the path
    # master and min-max congestion's (one call for its start) make no seed call
    calls = 0
    real = pflow.lp._WalkGraph.price

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(pflow.lp._WalkGraph, "price", counting)
    inst = gen_random_instance(12, 0.32, n_demands=6, seed=1, directed=False)
    net, demands = inst.net, inst.demands
    _, cols, meta = solve_walk_master(net, demands)
    assert calls == pflow.lp.SEED_ROUNDS + meta["rounds"]
    assert 0 < meta["seed_columns"] <= len(cols)
    master = WalkMaster(net, demands)
    try:  # the columns of a solve at half the node capacities, then re-solved
        master.solve(net.with_node_capacity({v: c / 2 for v, c in net.node_capacity.items()}))
        calls = 0
        again = master.solve(net)[2]
    finally:
        master.release()
    assert calls == again["rounds"] and again["seed_columns"] == 0
    calls = 0
    solve_walk_master(net, demands, paths=True)
    paths = calls
    monkeypatch.setattr(pflow.lp, "SEED_ROUNDS", 0)
    calls = 0
    solve_walk_master(net, demands, paths=True)
    assert paths == calls > 0
    capped = [Demand(d.source, d.sink, 1.0) for d in demands]
    calls = 0
    congestion = solve_walk_master(net, capped, objective=Objective("min-max-congestion"))[2]
    assert calls == 1 + congestion["rounds"]
    assert congestion["seed_columns"] == 0


# multiples of the node capacities a held master steps through: ascending,
# descending, mixed, and all nodes closed before they open, and again after
CAPACITY_STEPS = {"ascending": (0.25, 0.5, 1.0, 2.0), "descending": (2.0, 1.0, 0.5, 0.25),
                  "mixed": (1.0, 0.25, 2.0, 0.5, 1.0), "closed-then-open": (0.0, 1.0, 0.0, 2.0)}


def _stepped(net, steps):
    """`net` with its node capacities times each of `steps`, in order."""
    for f in steps:
        yield net.with_node_capacity({v: f * c for v, c in net.node_capacity.items()})


@pytest.mark.parametrize("steps", CAPACITY_STEPS.values(), ids=list(CAPACITY_STEPS))
def test_a_held_master_resolves_as_a_fresh_one_solves(steps):
    # each step rewrites the node rows and re-solves from the columns and
    # basis the last step left: a fresh master's objective, and walks that
    # verify against the step's capacities
    for net, demands in master_instances():
        capped = [Demand(d.source, d.sink, min(d.amount, 1.5)) for d in demands]
        for amounts in (demands, capped):
            master = WalkMaster(net, amounts)
            try:
                for step in _stepped(net, steps):
                    res, cols, meta = master.solve(step)
                    fresh = solve_walk_master(step, amounts)[0]
                    assert res.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)
                    walks = master_walks(step, amounts, res, cols, meta)
                    rep = verify_walk_solution(step, amounts, walks)
                    assert rep.ok, rep.problems
            finally:
                master.release()


@pytest.mark.parametrize("steps", CAPACITY_STEPS.values(), ids=list(CAPACITY_STEPS))
def test_a_held_min_max_master_resolves_as_a_fresh_one_solves(steps):
    # under min-max a node's capacity is θ's coefficient on its row, which
    # each step rewrites; a step where a demand has no walk raises as a
    # fresh master does, and the next step solves on
    for net, demands in master_instances():
        capped = [Demand(d.source, d.sink, 1.5) for d in demands]
        master = WalkMaster(net, capped, Objective("min-max-congestion"))
        try:
            for step in _stepped(net, steps):
                try:
                    fresh = solve_walk_master(step, capped,
                                              objective=Objective("min-max-congestion"))[0]
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        master.solve(step)
                    continue
                res = master.solve(step)[0]
                assert res.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)
        finally:
            master.release()


def test_a_held_master_solves_only_its_own_network():
    inst = gen_random_instance(6, 0.5, n_demands=2, seed=3, directed=False)
    other = gen_random_instance(6, 0.5, n_demands=2, seed=4, directed=False)
    master = WalkMaster(inst.net, inst.demands)
    try:
        with pytest.raises(ValueError, match="with_node_capacity copy"):
            master.solve(other.net)
    finally:
        master.release()
    capped = [Demand(d.source, d.sink, 1.0) for d in inst.demands]
    with pytest.raises(ValueError, match="one pricing call"):
        WalkMaster(inst.net, capped, Objective("min-weighted-congestion"))


@pytest.mark.parametrize("kind", ["min-max-congestion", "min-weighted-congestion"])
def test_congestion_walks_match_the_edge_lp(kind):
    # the congestion objectives over 2-walks: the master with a θ column for
    # min-max, one pricing call for min-weighted. Both are infeasible exactly
    # where the arc formulation is, reach its optimum, and their flows and
    # walks verify; min-max's final prices price no walk in, and Σ R_i x
    # each demand's cheapest walk under them meets θ
    rng = random.Random(2121)
    seen = set()
    for net, demands in master_instances():
        demands = [d if math.isfinite(d.amount) else
                   Demand(d.source, d.sink, float(rng.randint(1, 6))) for d in demands]
        try:
            want = edge_lp_optimum(net, demands, kind)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_edge_lp(net, demands, Objective(kind=kind))
            seen.add("infeasible")
            continue
        sol, res = solve_edge_lp(net, demands, Objective(kind=kind))
        assert abs(res.objective - want) <= 1e-9 * max(1.0, want)
        assert sol.meta["lp_objective"] == res.objective
        rep = verify_edge_solution(net, demands, sol)
        assert rep.ok, rep.problems
        rep = verify_walk_solution(net, demands, decompose(sol, net, demands))
        assert rep.ok, rep.problems
        if kind == "min-max-congestion":
            meta = sol.meta
            assert meta["congestion"] == res.objective
            assert meta["max_reduced_cost"] <= 1e-9
            assert abs(meta["dual_bound"] - res.objective) <= 1e-9 * max(1.0, res.objective)
        seen.add("flow" if demands else "no demand")
    assert seen == {"infeasible", "flow", "no demand"}


def _check_priced_walk(net, demands, price, i, column, cost):
    """Demand i's column runs from its source to its sink, w and g on arcs
    `FlowNetwork.barred` leaves open to them, is processed where C > 0 and,
    summed in walk order, costs `cost` under the row prices."""
    k, d = len(demands), demands[i]
    j, arcs, split = column
    assert j == i and 1 <= split <= len(arcs)
    path = [net.arcs[a] for a in arcs]
    assert path[0].tail == d.source and path[-1].head == d.sink
    assert all(a.head == b.tail for a, b in zip(path, path[1:]))
    wbar, gbar = net.barred(d.source, d.sink)
    assert not any(wbar[a] for a in arcs[:split])
    assert not any(gbar[a] for a in arcs[split:])
    proc = path[split - 1].head
    assert net.node_capacity[proc] > 0
    terms = [price[k + net.arcs[a].group] for a in arcs]
    terms.insert(split, price[k + net.edge_count + net.node_index(proc)])
    assert sum(terms) == cost


def _priced_instances():
    """The master's instances with demands, and a path whose only walk is
    priced all zero."""
    for net, demands in master_instances():
        if demands:
            yield net, demands
    yield FlowNetwork("sat", [("s", "a", 1.0), ("a", "t", 1.0)], {"a": 1.0}), \
        [Demand("s", "t")]


def test_fold_merges_the_columns_of_one_walk():
    # two columns over s->a->b->t, processed at a and at b, are one walk:
    # one entry carries both vertices, in the order first added, while the
    # demand's other walk stays an entry of its own; a scale divides both
    net = FlowNetwork("sabt", [("s", "a", 4.0), ("a", "b", 4.0), ("b", "t", 4.0),
                               ("s", "b", 1.0)], {"a": 1.0, "b": 2.0})
    demands = [Demand("s", "t")]
    at_a, at_b, direct = (0, (0, 1, 2), 1), (0, (0, 1, 2), 2), (0, (3, 2), 1)
    fold = WalkFold(net, demands).add([(at_a, 1.0), (direct, 0.5)]).add([(at_b, 2.0)])
    assert fold.entries() == [WalkEntry(0, ("s", "a", "b", "t"), 3.0, {"a": 1.0, "b": 2.0}),
                              WalkEntry(0, ("s", "b", "t"), 0.5, {"b": 0.5})]
    assert fold.entries([2.0]) == [
        WalkEntry(0, ("s", "a", "b", "t"), 1.5, {"a": 0.5, "b": 1.0}),
        WalkEntry(0, ("s", "b", "t"), 0.25, {"b": 0.25})]
    # a master's walks: its columns above SNAP, so the direct walk drops out
    res = LPResult("optimal", np.array([1.0, 1e-13, 2.0]), 3.0)
    walks = master_walks(net, demands, res, [at_a, direct, at_b], {"algorithm": "lp"})
    assert walks.entries == fold.entries()[:1] and walks.meta == {"algorithm": "lp"}
    rep = verify_walk_solution(net, demands, walks)
    assert rep.ok, rep.problems


def test_batched_pricing_matches_the_walk_oracle():
    # one Dijkstra run over the two-layer graphs prices every demand as the
    # walk oracle does, demand by demand; the prices are dyadic, so both
    # sum them exactly. The graph serves later rounds and a recapacitated copy
    rng = random.Random(2020)
    zero_walks = 0
    for net, demands in _priced_instances():
        k, rows = len(demands), len(demands) + net.edge_count + net.n_nodes
        copy = net.with_node_capacity({v: float(rng.randint(0, 2)) for v in net.nodes})
        assert copy._walk_graphs is net._walk_graphs
        rounds = [np.zeros(rows)] + [np.array([rng.randint(0, 8) / 8 for _ in range(rows)])
                                     for _ in range(3)]
        for cnet, price in [(net, p) for p in rounds] + [(copy, rounds[-1])]:
            graph = pflow.lp._walk_graph(cnet, demands)
            cost, walk = graph.price(price, graph.closed_rows(cnet))
            assert len(net._walk_graphs) == 1
            arc_cost = [price[k + a.group] if cnet.group_capacity[a.group] > 0 else math.inf
                        for a in cnet.arcs]
            node_cost = {v: price[k + cnet.edge_count + j] for j, v in enumerate(cnet.nodes)
                         if cnet.node_capacity[v] > 0}
            for i, d in enumerate(demands):
                want = shortest_processing_2walk(cnet, arc_cost, node_cost, d.source, d.sink)
                assert cost[i] == want.cost_to(d.sink)
                if math.isfinite(cost[i]):
                    _check_priced_walk(cnet, demands, price, i, walk(i), cost[i])
                    zero_walks += cost[i] == 0.0
    assert zero_walks > 0


def test_a_recapacitated_copy_prices_its_own_closed_nodes():
    # the closed-resource mask is cached per network: a with_node_capacity
    # copy that closes a node prices it at inf, though the original, whose
    # mask and pricing graph were built first, keeps it open
    net = FlowNetwork("sabt", [("s", "a", 1.0), ("a", "t", 1.0), ("s", "b", 1.0),
                               ("b", "t", 1.0)], {"a": 1.0, "b": 1.0})
    demands, rows = [Demand("s", "t")], 1 + net.edge_count + net.n_nodes
    price = np.zeros(rows)
    price[1 + net.edge_count + net.node_index("b")] = 2.0

    def cost(n):
        graph = pflow.lp._walk_graph(n, demands)
        return graph.price(price, graph.closed_rows(n))[0].tolist()

    assert cost(net) == [0.0]
    copy = net.with_node_capacity({"a": 0.0, "b": 1.0})
    assert copy.closed is not net.closed and copy._walk_graphs is net._walk_graphs
    assert cost(copy) == [2.0]
    shut = copy.with_node_capacity({})
    assert cost(shut) == [math.inf]
    assert cost(net) == [0.0]


def test_path_graph_opens_the_arcs_of_the_sink_leg_rule():
    # the path master's graph opens, per pair, exactly the arcs the leg
    # rule with v at the sink leaves open to w; a pair with s = t opens none
    for net, demands in master_instances():
        pairs = [(d.source, d.sink) for d in demands] + [(net.nodes[0], net.nodes[0])]
        graph = pflow.lp._WalkGraph(net, pairs, paths=True)
        n, csr = net.n_nodes, graph.csr
        got = {(int(r) // n, int(r) % n, int(c) % n) for r in range(csr.shape[0])
               for c in csr.indices[csr.indptr[r]:csr.indptr[r + 1]]}
        want = {(b, net.node_index(a.tail), net.node_index(a.head))
                for b, (s, t) in enumerate(pairs)
                for a, barred in zip(net.arcs, legs(net, s, t, t)[0]) if not barred}
        assert got == want


def test_every_column_counts_its_resources_as_recounted(monkeypatch):
    # each column the master, its seed and MWU make, in walk and in path
    # mode and through a recapacitated copy, which shares the network's
    # pricing graph, has the incidence the graph keeps for it: its resource
    # uses, recounted from its arcs and split in the tests' own code
    charged = []
    real = pflow.mwu.charge_walks

    def recording(*args):
        out = real(*args)
        charged.extend(col for col, _ in out[0])
        return out

    monkeypatch.setattr(pflow.mwu, "charge_walks", recording)
    seen = {"seed": 0, "master": 0, "paths": 0, "mwu": 0, "copy": 0}
    for net, demands in master_instances():
        if not demands:
            continue
        copy = net.with_node_capacity({v: 1.0 for v in net.nodes})
        made = {False: [], True: []}
        for cnet in (net, copy):
            charged.clear()
            mwu_solve(cnet, demands, MWUConfig(epsilon=0.3))
            _, cols, meta = solve_walk_master(cnet, demands)
            paths = solve_walk_master(cnet, demands, paths=True)[1]
            made[False] += cols + charged
            made[True] += paths
            seen["seed"] += meta["seed_columns"]
            seen["master"] += len(cols) - meta["seed_columns"]
            seen["paths"] += len(paths)
            seen["mwu"] += len(charged)
            seen["copy"] += (cnet is copy) * len(cols + paths + charged)
        for mode, cols in made.items():
            graph = pflow.lp._walk_graph(net, demands, mode)
            assert copy._walk_graphs[(mode, *((d.source, d.sink) for d in demands))] is graph
            for col in cols:
                assert graph._uses[col] == tuple(column_uses(net, col, mode))
            for col, uses in graph._uses.items():
                assert uses == tuple(column_uses(net, col, mode))
    assert all(seen.values()), seen


def test_a_held_graph_answers_as_a_fresh_network():
    # a second solve on one network prices on the graph, and reads the
    # incidences, the first left behind; its answer is a fresh network's,
    # entry for entry
    def solves(net, demands):
        res, cols, meta = solve_walk_master(net, demands)
        paths, pcols, pmeta = solve_walk_master(net, demands, paths=True)
        return (master_walks(net, demands, res, cols, meta), cols, res.x.tolist(),
                pcols, paths.x.tolist(), pmeta, mwu_solve(net, demands, MWUConfig(epsilon=0.3)))

    for net, demands in master_instances():
        first = solves(net, demands)
        assert not demands or len(net._walk_graphs) == 2
        again = solves(net, demands)
        fresh = FlowNetwork(net.nodes, net.edges, net.node_capacity, directed=net.directed)
        assert first == again == solves(fresh, demands)


def test_import_pflow_leaves_csgraph_unloaded():
    # only the pricing graph (`_WalkGraph`) runs scipy's csgraph, so `import
    # pflow` must not load it: the purchase LPs then never pay the megabyte
    # of RSS its import costs. Nor does the import create a HiGHS object: the pool
    # starts empty. A fresh interpreter shows what `import pflow` loads
    src = os.path.dirname(os.path.dirname(pflow.lp.__file__))
    code = ("import sys, pflow; assert 'scipy.sparse.csgraph' not in sys.modules; "
            "assert pflow.lp._POOL == []")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_walk_master_rejects_a_non_finite_dual(monkeypatch, inst_line):
    # a NaN row dual must not become a price of 0
    real = pflow.lp._highs

    class NanDual:
        def __init__(self):
            self.highs = real()

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getSolution(self):
            sol = self.highs.getSolution()
            return SimpleNamespace(col_value=sol.col_value,
                                   row_dual=[math.nan, *sol.row_dual[1:]])

    monkeypatch.setattr(pflow.lp, "_highs", NanDual)
    net, demands = inst_line
    with pytest.raises(ResourceLimitError, match="non-finite row dual"):
        solve_edge_lp(net, demands)


def test_split_model_dimensions(inst_loop):
    # arcs s->a, a->p, p->a, a->t. Under `FlowNetwork.barred`, w may not
    # enter either endpoint or leave the sink, and g may not enter the
    # source or leave either endpoint. So demand s->t has w on s->a, a->p
    # and p->a, g on a->p, p->a and a->t, and p at a, p and t; demand a->t
    # has w on a->p only, no g, and p at s, p and t.
    net, _ = inst_loop
    demands = [Demand("s", "t"), Demand("a", "t", 1.0)]
    model = build_edge_lp(net, demands)
    assert model.n_vars == (3 + 3 + 3) + (1 + 0 + 3)
    for i, d in enumerate(demands):
        for part, bar in enumerate(net.barred(d.source, d.sink)):
            assert [a for a in range(net.n_arcs) if model.info["col"][i, 2 * a + part] >= 0] \
                == [a for a, b in enumerate(bar) if not b]
    # per demand: a w-balance row at every non-source node and a g-balance
    # row at every non-sink node, each only where it has a term (no g row at
    # s for s->t, nor at a for a->t), and a cap row for the finite amount;
    # then one bandwidth row per edge and one node-capacity row per node
    # that some demand may process at. No row ties w to a total.
    assert model.n_rows == (3 + 2) + (3 + 2 + 1) + 4 + 4


def test_models_hold_no_column_fixed_at_zero():
    # a column is built only where it can carry flow: the bar lists leave
    # its arc open, its node may process, its candidate is not pinned to 0
    models = [m for kind in ("max-total-flow", "min-max-congestion",
                             "min-weighted-congestion") for m in _edge_models(kind)]
    models += [m for mode in ("min", "budgeted") for fixed in (False, True)
               for m in _purchase_models(mode, fixed)]
    for model in models:
        fixed = [j for j, (lo, hi) in enumerate(zip(model.lo, model.hi)) if lo == hi == 0.0]
        assert not fixed, (model.name, fixed)


def _arrays(model):
    """A model's arrays, to compare entry for entry: floats by their bits."""
    def bits(vals):
        return np.asarray(vals, dtype=float).tobytes()

    return (bits(model.lo), bits(model.hi), np.asarray(model.starts).tolist(),
            np.asarray(model.cols).tolist(), bits(model.coefs),
            np.asarray(model.senses).tolist(), bits(model.rhs),
            {j: bits([c]) for j, c in model.objective.items()})


_KINDS = ("max-total-flow", "min-max-congestion", "min-weighted-congestion")


def _plain_models(build=build_edge_lp):
    models = [m for kind in _KINDS for m in _edge_models(kind, build)]
    # an arc a->a, a group and a node of capacity 0 (no column under the
    # congestion objectives), and a demand from the loop's node
    net = FlowNetwork("sabt", [("s", "a", 2.0), ("a", "a", 1.0), ("a", "t", 0.0),
                               ("s", "b", 1.0), ("b", "t", 3.0), ("b", "a", 2.0)],
                      {"a": 0.0, "b": 2.0, "t": 1.0})
    demands = [Demand("s", "t", 1.0), Demand("a", "t", 2.0), Demand("b", "a")]
    models += [build(net, demands[:2] if kind != "max-total-flow" else demands,
                     Objective(kind=kind, node_weights={"b": 2.0}, edge_weights={4: 0.5}))
               for kind in _KINDS]
    return models


def _purchase_families(build=build_purchase_lp):
    """Purchase models _purchase_models misses: an arc u->u, candidates at a
    demand's source and at its sink, undirected networks, a group of
    infinite capacity, a network without arcs, a fractional pin and a pin of
    every candidate to 0."""
    loop = FlowNetwork("sabt", [("s", "a", 2.0), ("a", "a", 1.0), ("a", "t", 3.0),
                                ("s", "b", math.inf), ("b", "t", 2.0), ("t", "b", 1.0)])
    demands = [Demand("s", "t", 2.0), Demand("b", "t", 1.0)]
    insts = [PurchaseInstance(loop, demands, {"s": 2.0, "a": 3.0, "b": 1.0, "t": 2.0},
                              {"s": 1.0, "a": 2.0, "t": 1.5}, budget=3.0)]
    insts += [gen_random_purchase(6 + seed, 0.5, n_candidates=3, n_demands=2, seed=seed,
                                  budget=2.0, directed=False).purchase() for seed in range(3)]
    insts.append(PurchaseInstance(FlowNetwork("sat", []), [Demand("s", "t", 1.0)],
                                  {"a": 1.0, "t": 2.0}, budget=1.0))
    models = []
    for inst in insts:
        v = inst.candidates()[0]
        for mode in ("min", "budgeted"):
            cap = inst.budget / 2.0 if mode == "budgeted" else None
            models += [build(inst, mode, budget_cap=cap), build(inst, mode, fix={}),
                       build(inst, mode, fix={v: 0.5}),
                       build(inst, mode, fix=dict.fromkeys(inst.candidates(), 1.0))]
    return models


def test_bulk_rows_match_the_row_by_row_reference():
    # the edge LP and the purchase LP write their rows in bulk: entry for
    # entry what checked add_constraint rows, one at a time, give
    purchase = [(mode, fixed) for mode in ("min", "budgeted") for fixed in (False, True)]
    got = (_plain_models() + _purchase_families()
           + [m for mode, fixed in purchase for m in _purchase_models(mode, fixed)])
    want = (_plain_models(row_by_row_edge_lp) + _purchase_families(row_by_row_purchase_lp)
            + [m for mode, fixed in purchase
               for m in _purchase_models(mode, fixed, build=row_by_row_purchase_lp)])
    assert len(got) == len(want) == 12 + 40 + 16
    for built, ref in zip(got, want):
        assert _arrays(built) == _arrays(ref), built.name


def test_edge_lp_mps_matches_the_row_by_row_reference(tmp_path):
    # build_edge_lp reads its bars from one broadcast (FlowNetwork.bars);
    # the reference writes its rows one at a time under the rule spelled
    # out arc by arc. The MPS files, as --emit-lp writes them, are the same
    # byte for byte
    for j, (built, ref) in enumerate(zip(_plain_models(), _plain_models(row_by_row_edge_lp))):
        write_mps(built, str(tmp_path / f"built{j}.mps"))
        write_mps(ref, str(tmp_path / f"ref{j}.mps"))
        assert (tmp_path / f"built{j}.mps").read_bytes() == \
            (tmp_path / f"ref{j}.mps").read_bytes(), built.name


@pytest.mark.parametrize("corrupt, message", [
    (lambda m: m.cols.__setitem__(3, m.n_vars), "outside"),
    (lambda m: m.cols.__setitem__(m.starts[-2] + 1, m.cols[m.starts[-2]]), "twice"),
    (lambda m: m.coefs.__setitem__(5, math.nan), "non-finite matrix coefficient"),
], ids=["column-out-of-range", "column-twice", "nan-coefficient"])
def test_batched_models_are_checked_before_highs(corrupt, message, monkeypatch):
    # the purchase LP writes its rows as arrays; solve_lp still checks every
    # row and number before HiGHS sees the model
    inst = gen_random_purchase(8, 0.5, n_candidates=3, n_demands=2, seed=1,
                               budget=2.0).purchase()
    model = build_purchase_lp(inst, "budgeted", budget_cap=1.0)
    assert solve_lp(model).status == "optimal"
    assert model.n_rows > 1 and model.starts[-1] - model.starts[-2] >= 2
    corrupt(model)
    monkeypatch.setattr(pflow.lp, "_highs", lambda: pytest.fail("HiGHS was called"))
    with pytest.raises(ValueError, match=message):
        solve_lp(model)


@pytest.mark.parametrize("kind, optimum", [("min-max-congestion", 2.0),
                                           ("min-weighted-congestion", 3.5)])
def test_self_loop_stays_out_of_the_balance_rows(kind, optimum):
    # s->a (B 2), a->t (B 4), C_a = 1 and a demand of 2: the load ratios
    # are 1 on s->a, 0.5 on a->t and 2 at a, and the loop a->a (B 1) can
    # carry nothing useful. It enters and leaves a, so it is in no
    # conservation row, and the optimum is the loop-free network's
    edges = [("s", "a", 2.0), ("a", "t", 4.0)]
    loop = FlowNetwork("sat", edges + [("a", "a", 1.0)], {"a": 1.0})
    assert [a for a, arc in enumerate(loop.arcs) if arc.tail == arc.head] == [2]
    demands = [Demand("s", "t", 2.0)]
    model = build_edge_lp(loop, demands, Objective(kind=kind))
    model.check()
    looped = set(model.info["col"][0, 4:6].tolist())  # w and g of arc 2
    for k, sense in enumerate(model.senses):
        if sense == "==":
            assert not looped & set(model.cols[model.starts[k]:model.starts[k + 1]]), k
    res = solve_lp(model)
    plain = solve_lp(build_edge_lp(FlowNetwork("sat", edges, {"a": 1.0}), demands,
                                   Objective(kind=kind)))
    assert res.status == plain.status == "optimal"
    assert res.objective == pytest.approx(optimum, abs=1e-9)
    assert plain.objective == pytest.approx(optimum, abs=1e-9)


def test_processing_vertices_follow_the_walk():
    # each vertex once, where the walk first reaches it: walk_lp_optimum's
    # columns, and so its vertex, do not depend on string hashing
    walk = ("s", "b", "s", "c", "a", "c", "t", "a", "t")
    assert processing_vertices(walk, "s", "t") == ["c", "a"]
    assert processing_vertices(walk, "s", "t", allow_endpoints=True) == ["s", "c", "a", "t"]
    # back at the source after the sink: nowhere between them to process
    assert processing_vertices(("s", "t", "s", "t"), "s", "t") == []
    assert processing_vertices(("s", "t", "s", "t"), "s", "t", True) == ["s", "t"]


def _peak_ratio(net, sol):
    ratios = [load / net.group_capacity[g] for g, load in sol.group_loads(net).items()
              if load > 0]
    ratios += [load / net.node_capacity[v] for v, load in sol.node_loads().items()
               if load > 0]
    return max(ratios, default=0.0)


@pytest.mark.parametrize("kind", ["max-total-flow", "min-max-congestion",
                                  "min-weighted-congestion"])
def test_solutions_verify_and_respect_the_split(kind):
    # congestion objectives soften capacities into load ratios: a solution
    # reports its peak ratio, the verifiers check its loads against capacity
    # x that ratio, and reject it once the ratio is understated
    checked = overloaded = 0
    for seed in range(12):
        inst = gen_random_instance(6, 0.5, node_cap=(0, 4), n_demands=3,
                                   seed=seed, directed=seed % 2 == 0,
                                   amounts=(1, 4))
        net, demands = inst.net, inst.demands
        try:
            sol, _ = solve_edge_lp(net, demands, Objective(kind=kind))
        except InfeasibleError:
            continue
        if kind != "max-total-flow":
            peak = _peak_ratio(net, sol)
            assert peak <= sol.meta["congestion"] * (1 + 1e-9)
            for i, d in enumerate(demands):
                assert sol.delivered(net, demands, i) >= d.amount * (1 - 1e-9)
            if peak > 1.01:
                overloaded += 1
                low = EdgeFlowSolution(sol.flow, sol.unprocessed, sol.processing,
                                       sol.objective,
                                       {**sol.meta, "congestion": peak / 1.01})
                assert not verify_edge_solution(net, demands, low).ok
        rep = verify_edge_solution(net, demands, sol)
        assert rep.ok, rep.problems
        rep = verify_walk_solution(net, demands, decompose(sol, net, demands))
        assert rep.ok, rep.problems
        for i, d in enumerate(demands):
            w, f = sol.unprocessed[i], sol.flow[i]
            for a in net.in_arcs[d.sink]:
                assert w.get(a, 0.0) == 0.0
            for a in net.out_arcs[d.source]:
                assert f.get(a, 0.0) == w.get(a, 0.0)
        checked += 1
    assert checked >= 6
    assert kind == "max-total-flow" or overloaded >= 3
