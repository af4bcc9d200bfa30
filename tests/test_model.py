import math

import numpy as np
import pytest

from pflow.decompose import decompose
from pflow.generators import gen_random_instance
from pflow.lp import _walk_graph, build_edge_lp, solve_edge_lp
from pflow.model import (Demand, EdgeFlowSolution, FlowNetwork, StructuralError,
                         WalkEntry, WalkFlowSolution, feas_slack, validate_instance,
                         verify_edge_solution, verify_walk_solution)

from oracles import legs, processing_bars


def test_directed_network_indexing():
    net = FlowNetwork("sat", [("s", "a", 2.0), ("a", "t", 3.0)], {"a": 1.0})
    assert net.nodes == ("s", "a", "t")
    assert net.n_arcs == 2 and net.edge_count == 2
    assert net.arc_index[("s", "a")] == 0
    assert net.out_arcs["s"] == (0,) and net.in_arcs["t"] == (1,)
    assert net.group_capacity == (2.0, 3.0)
    assert net.node_capacity == {"s": 0.0, "a": 1.0, "t": 0.0}


def test_undirected_network_shares_group_budget():
    net = FlowNetwork("ab", [("a", "b", 5.0)], directed=False)
    assert net.n_arcs == 2
    assert net.edge_count == 1
    fwd, bwd = net.arcs
    assert (fwd.tail, fwd.head) == ("a", "b")
    assert (bwd.tail, bwd.head) == ("b", "a")
    assert fwd.group == bwd.group
    assert net.groups[0] == (0, 1)


@pytest.mark.parametrize("nodes,edges", [
    ("aab", []),                            # duplicate node id
    ("ab", [("a", "z", 1.0)]),              # edge to unknown node
    ("ab", [("a", "b", 1.0), ("a", "b", 2.0)]),  # duplicate arc
])
def test_bad_construction_rejected(nodes, edges):
    with pytest.raises(StructuralError):
        FlowNetwork(nodes, edges)


def test_node_id_with_an_arrow_rejected():
    # documents key an arc as tail->head: built with these names, the walk
    # master's document gave the arcs a->(b->t) and (a->b)->t one key, a->b->t
    nodes = ["s", "a", "b->t", "a->b", "t"]
    with pytest.raises(StructuralError, match="node id 'b->t' contains '->'"):
        FlowNetwork(nodes, [(u, v, 1.0) for u, v in zip(nodes, nodes[1:])])


def test_undirected_duplicate_via_reversal():
    with pytest.raises(StructuralError):
        FlowNetwork("ab", [("a", "b", 1.0), ("b", "a", 1.0)], directed=False)


def test_node_capacity_for_unknown_node_rejected():
    with pytest.raises(StructuralError):
        FlowNetwork("ab", [("a", "b", 1.0)], {"q": 3.0})


def test_with_node_capacity_is_a_fresh_copy():
    net = FlowNetwork("ab", [("a", "b", 4.0)], {"a": 1.0}, directed=False)
    re = net.with_node_capacity({"b": 2.0})
    assert re.node_capacity["b"] == 2.0 and re.node_capacity["a"] == 0.0
    assert net.node_capacity["a"] == 1.0
    assert re.edge_count == 1 and re.n_arcs == 2
    assert re.directed == net.directed


@pytest.mark.parametrize("directed", [True, False])
def test_with_node_capacity_equals_a_fresh_network(directed):
    # the copy shares the topology instead of rebuilding it, and is what
    # __init__ builds from the same nodes, edges and capacities, attribute by
    # attribute (integer capacities arrive as floats); its closed resources
    # are its own, built after the original's
    net = FlowNetwork("sabt", [("s", "a", 2.0), ("a", "t", 0.0), ("s", "b", 1.0),
                               ("b", "a", 3.0)], {"a": 1.0, "b": 2.0}, directed=directed)
    net.arc_ends, net.closed  # built first, then handed on
    caps = {"b": 0, "t": 4}
    copy = net.with_node_capacity(caps)
    fresh = FlowNetwork(net.nodes, net.edges, caps, directed=directed)
    assert copy.node_capacity == fresh.node_capacity == {"s": 0.0, "a": 0.0, "b": 0.0, "t": 4.0}
    assert all(type(c) is float for c in copy.node_capacity.values())
    for name in ("nodes", "directed", "_index", "arcs", "group_capacity", "arc_index",
                 "out_arcs", "in_arcs", "groups", "edges"):
        assert getattr(copy, name) == getattr(fresh, name), name
    for mine, theirs in zip(copy.arc_ends, fresh.arc_ends):
        assert mine.tolist() == theirs.tolist()
    assert copy.closed.tolist() == fresh.closed.tolist() != net.closed.tolist()
    assert copy.closed is not net.closed
    assert copy.arcs is net.arcs and copy._walk_graphs is net._walk_graphs
    assert copy._barred is net._barred
    assert net.node_capacity == {"s": 0.0, "a": 1.0, "b": 2.0, "t": 0.0}
    with pytest.raises(StructuralError, match="unknown node 'q'"):
        net.with_node_capacity({"q": 1.0})


def test_demand_defaults_to_uncapped():
    assert Demand("s", "t").amount == math.inf


def test_validate_instance_reports_each_problem():
    net = FlowNetwork("st", [("s", "t", 1.0)])
    rep = validate_instance(net, [Demand("s", "t")])
    assert rep.ok and bool(rep)
    rep = validate_instance(net, [Demand("s", "s"), Demand("q", "t"),
                                  Demand("s", "t", -2.0)])
    assert not rep.ok
    joined = " ".join(rep.problems)
    assert "degenerate" in joined
    assert "unknown source" in joined
    assert "amount must be positive" in joined


def test_feas_slack_scales_with_capacity():
    assert feas_slack(1.0) == 1e-6
    assert feas_slack(1e9) == 1e3
    assert feas_slack(math.inf) == 1e-9


def _line():
    net = FlowNetwork("sat", [("s", "a", 10.0), ("a", "t", 10.0)], {"a": 3.0})
    return net, [Demand("s", "t", math.inf)]


def test_walk_solution_load_accounting():
    net, demands = _line()
    sol = WalkFlowSolution([
        WalkEntry(0, ("s", "a", "t"), 2.0, {"a": 2.0}),
        WalkEntry(0, ("s", "a", "t"), 1.0, {"a": 1.0}),
    ])
    assert sol.objective == 3.0
    assert sol.delivered(0) == 3.0
    assert sol.edge_loads(net) == {0: 3.0, 1: 3.0}
    assert sol.node_loads() == {"a": 3.0}
    assert verify_walk_solution(net, demands, sol).ok


def test_verify_rejects_quantitative_violations():
    net, demands = _line()

    def report(entry):
        return verify_walk_solution(net, demands, WalkFlowSolution([entry]))

    # processing exceeds the node budget
    rep = report(WalkEntry(0, ("s", "a", "t"), 4.0, {"a": 4.0}))
    assert not rep.ok and any("node a" in p for p in rep.problems)
    # processing does not cover the flow
    rep = report(WalkEntry(0, ("s", "a", "t"), 2.0, {"a": 1.0}))
    assert any("sums to" in p for p in rep.problems)
    # processing at an endpoint is not allowed in the throughput world
    rep = report(WalkEntry(0, ("s", "a", "t"), 1.0, {"s": 1.0}))
    assert any("endpoint" in p for p in rep.problems)
    # wrong route
    rep = report(WalkEntry(0, ("a", "t"), 1.0, {"a": 1.0}))
    assert any("route" in p for p in rep.problems)


def test_verify_rejects_triple_visit():
    net = FlowNetwork(
        "sapt",
        [("s", "a", 9.0), ("a", "p", 9.0), ("p", "a", 9.0), ("a", "t", 9.0)],
        {"p": 9.0})
    walk = ("s", "a", "p", "a", "p", "a", "t")
    rep = verify_walk_solution(
        net, [Demand("s", "t")],
        WalkFlowSolution([WalkEntry(0, walk, 1.0, {"p": 1.0})]))
    assert not rep.ok
    assert any("visited 3" in p for p in rep.problems)


def test_verify_raises_on_structural_nonsense():
    net, demands = _line()
    with pytest.raises(StructuralError):
        verify_walk_solution(net, demands, WalkFlowSolution(
            [WalkEntry(5, ("s", "a", "t"), 1.0, {"a": 1.0})]))
    with pytest.raises(StructuralError):
        verify_walk_solution(net, demands, WalkFlowSolution(
            [WalkEntry(0, ("s", "t"), 1.0, {})]))  # no s->t arc


def test_verify_enforces_demand_cap():
    net = FlowNetwork("sat", [("s", "a", 10.0), ("a", "t", 10.0)], {"a": 9.0})
    sol = WalkFlowSolution([WalkEntry(0, ("s", "a", "t"), 5.0, {"a": 5.0})])
    rep = verify_walk_solution(net, [Demand("s", "t", 4.0)], sol)
    assert any("exceeds requested" in p for p in rep.problems)


def test_verify_enforces_processing_position():
    # a walk neither enters its source nor leaves its sink, as in the edge
    # LP, so processing sits strictly between them
    net = FlowNetwork(
        "sabt",
        [("s", "a", 9.0), ("a", "t", 9.0), ("t", "b", 9.0), ("b", "t", 9.0),
         ("a", "s", 9.0), ("s", "t", 9.0)],
        {"a": 9.0, "b": 9.0})

    def report(nodes, at):
        return verify_walk_solution(net, [Demand("s", "t")], WalkFlowSolution(
            [WalkEntry(0, nodes, 1.0, {at: 1.0})]))

    assert report(("s", "a", "t"), "a").ok
    for nodes, at, arc in [(("s", "a", "t", "b", "t"), "a", "t->b"),
                           (("s", "a", "t", "b", "t"), "b", "t->b"),
                           (("s", "a", "s", "t"), "a", "a->s")]:
        rep = report(nodes, at)
        assert not rep.ok
        assert f"entry 0: arc {arc} is barred to demand 0's flow" in rep.problems


def test_barred_arcs_follow_the_processing_rule():
    net = FlowNetwork("sabt", [("s", "a", 1.0), ("a", "t", 1.0), ("a", "s", 1.0),
                               ("s", "t", 1.0), ("t", "b", 1.0)])
    w, g = net.barred("s", "t")
    by_arc = {(a.tail, a.head): (w[i], g[i]) for i, a in enumerate(net.arcs)}
    assert by_arc == {("s", "a"): (False, True), ("a", "t"): (True, False),
                      ("a", "s"): (True, True), ("s", "t"): (True, True),
                      ("t", "b"): (True, True)}
    assert net.barred("s", "t") is net.barred("s", "t")


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_bars_broadcast_equals_the_per_arc_rule(directed):
    # FlowNetwork.bars states the rule for every ordered (s, t) pair at
    # once, and fills the cache barred reads: both equal the rule written
    # out one arc at a time, as tuples of Python bools. The networks have
    # pairs with an s->t arc and antiparallel pairs of arcs
    found_arc = found_antiparallel = False
    for seed in range(4):
        net = gen_random_instance(7, 0.45, n_demands=0, seed=seed, directed=directed).net
        pairs = [(s, t) for s in net.nodes for t in net.nodes if s != t]
        ends = np.array([(net.node_index(s), net.node_index(t)) for s, t in pairs])
        bars = net.bars(ends)
        assert bars.shape == (len(pairs), 2, net.n_arcs) and bars.dtype == bool
        fresh = FlowNetwork(net.nodes, net.edges, net.node_capacity, net.directed)
        for (s, t), rows in zip(pairs, bars.tolist()):
            want = processing_bars(net, s, t)
            assert (tuple(rows[0]), tuple(rows[1])) == want, (seed, s, t)
            assert net.barred(s, t) == want == fresh.barred(s, t), (seed, s, t)
            assert all(type(b) is bool for part in net.barred(s, t) for b in part)
            found_arc |= (s, t) in net.arc_index
            found_antiparallel |= (s, t) in net.arc_index and (t, s) in net.arc_index
    assert found_arc and found_antiparallel


def test_bars_fill_the_cache_copies_share():
    # a bars call on a with_node_capacity copy, the pricing graph's build
    # and the edge LP's build each leave every pair they cover in the one
    # cache, so the verifiers afterwards read barred's rows from it; a pair
    # already there keeps its rows
    net = FlowNetwork("sabt", [("s", "a", 2.0), ("a", "t", 1.0), ("s", "b", 1.0),
                               ("b", "t", 3.0), ("t", "s", 1.0)], {"a": 1.0, "b": 2.0})
    first = net.barred("s", "t")
    copy = net.with_node_capacity({"a": 2.0})
    copy.bars(np.array([[net.node_index("s"), net.node_index("t")],
                        [net.node_index("a"), net.node_index("t")]]))
    assert copy._barred is net._barred
    assert net.barred("s", "t") is first and ("a", "t") in net._barred
    assert net.barred("a", "t") is copy.barred("a", "t")
    _walk_graph(copy, [Demand("b", "t")])
    build_edge_lp(net, [Demand("s", "b")])
    assert set(net._barred) == {("s", "t"), ("a", "t"), ("b", "t"), ("s", "b")}
    for s, t in net._barred:
        assert net.barred(s, t) == processing_bars(net, s, t)
    with pytest.raises(StructuralError, match="unknown node 'q'"):
        net.barred("s", "q")


@pytest.mark.parametrize("v, want_w, want_g", [
    # interior: w runs s->a and g a->t, each free to pass the other endpoint
    ("a", {("a", "s"), ("a", "t"), ("t", "s")}, {("s", "a"), ("t", "a"), ("t", "s")}),
    # at the source: no unprocessed leg, g leaves s and never re-enters it
    ("s", "all", {("a", "s"), ("t", "a"), ("t", "s")}),
    # at the sink: no processed leg, w reaches t and never leaves it
    ("t", {("a", "s"), ("t", "a"), ("t", "s")}, "all"),
])
def test_legs_follow_the_leg_rule(v, want_w, want_g):
    # FlowNetwork.legs states the rule for arrays of legs: processed at u,
    # w is the leg s->u and g the leg u->t, as the one-arc-at-a-time
    # reference bars them
    net = FlowNetwork("sat", [("s", "a", 1.0), ("a", "s", 1.0), ("a", "t", 1.0),
                              ("t", "a", 1.0), ("s", "t", 1.0), ("t", "s", 1.0)])
    arcs = {(a.tail, a.head) for a in net.arcs}
    s, t = net.node_index("s"), net.node_index("t")
    triples = np.array([(s, t, u) for u in range(net.n_nodes)])
    bars = net.legs(triples[:, ::2], triples[:, 2:0:-1])
    assert bars.shape == (3, 2, net.n_arcs)
    for (_, _, u), (w, g) in zip(triples, bars.tolist()):
        assert (tuple(w), tuple(g)) == legs(net, "s", "t", net.nodes[u])
    w, g = bars[net.node_index(v)].tolist()
    assert {(a.tail, a.head) for a, b in zip(net.arcs, w) if b} == \
        (arcs if want_w == "all" else want_w)
    assert {(a.tail, a.head) for a, b in zip(net.arcs, g) if b} == \
        (arcs if want_g == "all" else want_g)


_RULE_NET = FlowNetwork("sat", [("s", "a", 9.0), ("a", "s", 9.0), ("a", "t", 9.0),
                                ("t", "a", 9.0)], {"a": 9.0, "t": 9.0})
_ARC = _RULE_NET.arc_index


@pytest.mark.parametrize("flow,unprocessed,processing,problem,walk,at", [
    # 2 leave s unprocessed and 1 of them returns before processing
    ({("s", "a"): 2.0, ("a", "s"): 1.0, ("a", "t"): 1.0},
     {("s", "a"): 2.0, ("a", "s"): 1.0}, {"a": 1.0},
     "barred flow 1.0 on arc a->s", ("s", "a", "s", "a", "t"), "a"),
    # 1 unit goes on from t and comes back
    ({("s", "a"): 1.0, ("a", "t"): 2.0, ("t", "a"): 1.0},
     {("s", "a"): 1.0}, {"a": 1.0},
     "barred flow 1.0 on arc t->a", ("s", "a", "t", "a", "t"), "a"),
    # flow that leaves s as if processed there
    ({("s", "a"): 1.0, ("a", "t"): 1.0}, {}, {},
     "barred flow 1.0 on arc s->a", ("s", "a", "t"), "s"),
    # processed on arrival at the sink
    ({("s", "a"): 1.0, ("a", "t"): 1.0}, {("s", "a"): 1.0, ("a", "t"): 1.0}, {"t": 1.0},
     "barred flow 1.0 on arc a->t", ("s", "a", "t"), "t"),
], ids=["into-source", "out-of-sink", "processed-out-of-source", "unprocessed-into-sink"])
def test_verifiers_reject_each_barred_case(flow, unprocessed, processing, problem,
                                           walk, at):
    demands = [Demand("s", "t", 1.0)]
    sol = EdgeFlowSolution([{_ARC[k]: v for k, v in flow.items()}],
                           [{_ARC[k]: v for k, v in unprocessed.items()}],
                           [processing], 1.0)
    assert sol.delivered(_RULE_NET, demands, 0) == 1.0
    assert verify_edge_solution(_RULE_NET, demands, sol).problems == [f"demand 0: {problem}"]
    # the same flow as one walk
    walks = WalkFlowSolution([WalkEntry(0, walk, 1.0, {at: 1.0})])
    assert not verify_walk_solution(_RULE_NET, demands, walks).ok


def test_a_clean_lp_solution_passes_both_verifiers():
    demands = [Demand("s", "t", 1.0)]
    sol, _ = solve_edge_lp(_RULE_NET, demands)
    assert sol.objective == 1.0
    assert verify_edge_solution(_RULE_NET, demands, sol).ok
    assert verify_walk_solution(_RULE_NET, demands, decompose(sol, _RULE_NET, demands)).ok


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_walk_verifier_rejects_non_finite_values(bad):
    # every check is a comparison, which a NaN fails both ways
    net, demands = _line()
    walks = WalkFlowSolution([WalkEntry(0, ("s", "a", "t"), bad, {"a": bad})])
    problems = verify_walk_solution(net, demands, walks).problems
    assert f"entry 0: non-finite flow {bad}" in problems
    assert f"entry 0: non-finite processing {bad} at a" in problems


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_edge_verifier_rejects_non_finite_values(bad):
    net, demands = _line()
    sol = EdgeFlowSolution([{0: bad, 1: bad}], [{0: bad}], [{"a": bad}], 0.0)
    problems = verify_edge_solution(net, demands, sol).problems
    assert f"demand 0 arc s->a: non-finite flow {bad}" in problems
    assert f"demand 0 arc a->t: non-finite flow {bad}" in problems
    assert f"demand 0 arc s->a: non-finite unprocessed flow {bad}" in problems
    assert f"demand 0 node a: non-finite processing {bad}" in problems
