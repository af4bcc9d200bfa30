import math
import random

import pytest

from pflow.decompose import DecompositionError, _cancel, decompose, extraction_bound
from pflow.generators import gen_random_instance
from pflow.lp import solve_edge_lp
from pflow.model import (Demand, EdgeFlowSolution, FlowNetwork,
                         verify_edge_solution, verify_walk_solution)

from oracles import (walk_lp_optimum, whole_network_decompose,
                     whole_network_verify_edge_solution)


def _same_as_whole_network(sol, net, demands):
    """decompose(sol), which reads each commodity's support alone, after
    checking that it equals the whole-network reference: the same walks in
    the same order, bit for bit, and the same meta."""
    walks = decompose(sol, net, demands)
    want = whole_network_decompose(sol, net, demands)
    assert walks.entries == want.entries
    assert walks.meta == want.meta
    return walks


def _solve_and_decompose(net, demands):
    sol, _ = solve_edge_lp(net, demands)
    walks = decompose(sol, net, demands)
    return sol, walks


def test_single_relay_line(inst_line):
    net, demands = inst_line
    sol, walks = _solve_and_decompose(net, demands)
    assert verify_walk_solution(net, demands, walks).ok
    assert walks.objective == pytest.approx(sol.objective, abs=1e-9)
    assert [e.nodes for e in walks.entries] == [("s", "a", "t")]


def test_detour_produces_a_double_visit(inst_loop):
    net, demands = inst_loop
    _, walks = _solve_and_decompose(net, demands)
    assert verify_walk_solution(net, demands, walks).ok
    assert walks.objective == pytest.approx(2.0, abs=1e-9)
    revisiting = [e for e in walks.entries
                  if max(e.nodes.count(v) for v in e.nodes) == 2]
    assert revisiting, "expected a walk that revisits a vertex"


def test_recirculation_arc_does_not_confuse_extraction():
    # a cycle back through the source invites phantom circulation; the
    # decomposition must still account exactly for the delivered value
    net = FlowNetwork(
        "sat", [("s", "a", 10.0), ("a", "t", 10.0), ("a", "s", 10.0)],
        {"a": 3.0})
    demands = [Demand("s", "t")]
    sol, walks = _solve_and_decompose(net, demands)
    assert verify_walk_solution(net, demands, walks).ok
    assert walks.objective == pytest.approx(sol.objective, abs=1e-6)


def test_flow_into_the_source_or_out_of_the_sink_is_rejected():
    # 2 units go s->a->t, processed at a, and 1 returns t->s: the net source
    # outflow is the 1 asked for, but the walks would deliver 2
    net = FlowNetwork("sat", [("s", "a", 10.0), ("a", "t", 10.0), ("t", "s", 10.0)],
                      {"a": 10.0})
    demands = [Demand("s", "t", 1.0)]
    arc = net.arc_index
    unprocessed = {arc["s", "a"]: 2.0}
    flow = {**unprocessed, arc["a", "t"]: 2.0, arc["t", "s"]: 1.0}
    sol = EdgeFlowSolution([flow], [unprocessed], [{"a": 2.0}], 1.0)
    assert sol.delivered(net, demands, 0) == 1.0
    assert verify_edge_solution(net, demands, sol).problems == [
        "demand 0: barred flow 1.0 on arc t->s"]
    assert not verify_walk_solution(net, demands, decompose(sol, net, demands)).ok
    # the edge LP bars that arc and delivers the 1 on s->a->t alone
    lp_sol, walks = _solve_and_decompose(net, demands)
    assert lp_sol.flow == [{arc["s", "a"]: 1.0, arc["a", "t"]: 1.0}]
    assert verify_walk_solution(net, demands, walks).ok


def test_a_processed_loop_back_into_the_source_is_extracted_without_a_walk():
    # 1e-10 of the processed flow returns a->s, below the verifier's
    # tolerance; a->s comes before a->t, so the first forward trace ends at
    # the source and that extraction emits no walk
    net = FlowNetwork("sat", [("s", "a", 9.0), ("a", "s", 9.0), ("a", "t", 9.0)],
                      {"a": 9.0})
    demands = [Demand("s", "t", 1.0)]
    arc = net.arc_index
    unprocessed = {arc["s", "a"]: 1.0 + 1e-10}
    flow = {**unprocessed, arc["a", "s"]: 1e-10, arc["a", "t"]: 1.0}
    sol = EdgeFlowSolution([flow], [unprocessed], [{"a": 1.0 + 1e-10}], 1.0)
    assert verify_edge_solution(net, demands, sol).ok
    walks = _same_as_whole_network(sol, net, demands)
    assert walks.objective == 1.0
    assert walks.meta["extractions"] == [len(walks.entries) + 1]
    assert verify_walk_solution(net, demands, walks).ok


def test_extraction_bound_formula():
    net = FlowNetwork("sat", [("s", "a", 1.0), ("a", "t", 1.0)])
    assert extraction_bound(net) == 3 + 2 * 2
    undirected = FlowNetwork("ab", [("a", "b", 1.0)], directed=False)
    # antiparallel pair is one edge budget but two arcs
    assert extraction_bound(undirected) == 2 + 2 * 2


def test_cancel_cycles_empties_a_circulation():
    net = FlowNetwork("uvwx", [("u", "v", 1.0), ("v", "u", 1.0), ("v", "w", 1.0),
                               ("w", "u", 1.0), ("w", "x", 1.0), ("x", "w", 1.0)])
    # u-v-u and u-v-w-u share arc u->v; w-x-w leaves float dust on x->w
    value = [3.0, 1.0, 2.0, 2.0, 0.3, 0.1 + 0.2]
    assert _cancel(net, value, net.out_arcs) == 3
    assert value == [0.0] * 6


def test_cycles_in_both_parts_are_cancelled():
    # one walk s->a->t processed at a, plus an unprocessed loop a->b->a and a
    # processed loop a->c->a that carry no delivered flow
    net = FlowNetwork("sabct", [("s", "a", 10.0), ("a", "t", 10.0),
                                ("a", "b", 10.0), ("b", "a", 10.0),
                                ("a", "c", 10.0), ("c", "a", 10.0)], {"a": 1.0})
    demands = [Demand("s", "t")]
    arc = net.arc_index
    unprocessed = {arc["s", "a"]: 1.0, arc["a", "b"]: 1.0, arc["b", "a"]: 1.0}
    flow = {**unprocessed, arc["a", "t"]: 1.0, arc["a", "c"]: 1.0, arc["c", "a"]: 1.0}
    sol = EdgeFlowSolution([flow], [unprocessed], [{"a": 1.0}], 1.0)
    assert verify_edge_solution(net, demands, sol).ok
    walks = _same_as_whole_network(sol, net, demands)
    assert walks.meta["cancelled_cycles"] == [2]
    assert verify_walk_solution(net, demands, walks).ok
    assert walks.objective == pytest.approx(sol.objective, abs=1e-12)
    assert [e.nodes for e in walks.entries] == [("s", "a", "t")]


def test_arc_keys_outside_the_network_are_ignored():
    # the whole-network scan read only arcs 0 .. n_arcs - 1 of the maps;
    # the support scan skips any other key as well, rather than wrapping -1
    # around to the last arc
    net = FlowNetwork("sat", [("s", "a", 9.0), ("a", "t", 9.0)], {"a": 9.0})
    demands = [Demand("s", "t")]
    arc = net.arc_index
    sol = EdgeFlowSolution([{arc["s", "a"]: 1.0, arc["a", "t"]: 1.0, -1: 5.0, 2: 5.0}],
                           [{arc["s", "a"]: 1.0, -1: 5.0}], [{"a": 1.0}], 1.0)
    walks = _same_as_whole_network(sol, net, demands)
    assert [(e.nodes, e.flow) for e in walks.entries] == [(("s", "a", "t"), 1.0)]


def _small_instances():
    """The reduced copy of the acceptance corpus: 40 networks of 3 to 6
    nodes, directed or not, with one or two uncapped demands."""
    rng = random.Random(818)
    for _ in range(40):
        n = rng.randint(3, 6)
        names = [f"v{i}" for i in range(n)]
        directed = rng.random() < 0.6
        pairs = [(a, b) for a in names for b in names if a != b]
        if not directed:
            pairs = [(a, b) for a, b in pairs if a < b]
        rng.shuffle(pairs)
        m = rng.randint(n - 1, min(len(pairs), 2 * n))
        edges = [(a, b, float(rng.randint(1, 5))) for a, b in pairs[:m]]
        caps = {v: float(rng.randint(0, 4)) for v in names}
        net = FlowNetwork(names, edges, caps, directed=directed)
        demands = [Demand(*rng.sample(names, 2))
                   for _ in range(rng.randint(1, 2))]
        yield net, demands


def test_random_instances_round_trip():
    """Reduced copy of the acceptance corpus: every decomposition must
    equal the whole-network reference, verify, preserve the objective, and
    respect the extraction bound."""
    for trial, (net, demands) in enumerate(_small_instances()):
        sol, _ = solve_edge_lp(net, demands)
        walks = _same_as_whole_network(sol, net, demands)
        rep = verify_walk_solution(net, demands, walks)
        assert rep.ok, (trial, rep.problems[:3])
        assert walks.objective == pytest.approx(sol.objective, abs=1e-6)
        bound = extraction_bound(net)
        assert all(x <= bound for x in walks.meta["extractions"])
        assert all(max(e.nodes.count(v) for v in e.nodes) <= 2
                   for e in walks.entries)
        # and the edge optimum itself equals the walk-level optimum
        opt = walk_lp_optimum(net, demands)
        assert abs(opt - sol.objective) <= 1e-6 * max(1.0, abs(opt))


def _random_cycle(net, rng):
    """A directed cycle of `net` as arc indices, closed by a random walk
    from a random node; None if the walk reaches a node with no out-arc."""
    v = rng.choice(net.nodes)
    at, arcs = {v: 0}, []
    while net.out_arcs[v]:
        a = rng.choice(net.out_arcs[v])
        arcs.append(a)
        v = net.arcs[a].head
        if v in at:
            return arcs[at[v]:]
        at[v] = len(arcs)
    return None


def _outcome(decomp, sol, net, demands):
    try:
        walks = decomp(sol, net, demands)
    except DecompositionError as exc:
        return str(exc)
    return walks.entries, walks.meta


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_support_scan_equals_the_whole_network_scan(directed):
    # perfbench's exact shape (16 nodes, 28 edges, 14 demands): decompose
    # reads each commodity's support alone and must give what the
    # whole-network scan gives, walk for walk and bit for bit, on the LP's
    # flows; and with circulations added to both parts of every commodity,
    # which make the cycle searches start, meet and cancel in earnest. Each
    # network is also rebuilt from its edges shuffled, so that arc order
    # and node order disagree
    rng = random.Random(31)
    cancelled = 0
    for seed in range(10):
        inst = gen_random_instance(16, 4.0 * 28 / (16 * 15), n_demands=14, seed=seed,
                                   directed=directed, max_arcs=28)
        edges = rng.sample(inst.net.edges, len(inst.net.edges))
        shuffled = FlowNetwork(inst.net.nodes, edges, inst.net.node_capacity, directed)
        for net in (inst.net, shuffled):
            cancelled += _check_support_scan(net, inst.demands, rng)
    assert cancelled > 0


def _check_support_scan(net, demands, rng):
    """Check decompose against the whole-network reference on the LP's
    flows, then on them with random circulations added; returns how many
    cycles the second cancelled."""
    sol, _ = solve_edge_lp(net, demands)
    walks = _same_as_whole_network(sol, net, demands)
    assert verify_walk_solution(net, demands, walks).ok
    flow = [dict(f) for f in sol.flow]
    unprocessed = [dict(w) for w in sol.unprocessed]
    for i in range(len(demands)):
        for part in (flow[i], unprocessed[i]) * 2:
            cycle = _random_cycle(net, rng)
            extra = rng.uniform(0.1, 1.0)
            for a in cycle or ():
                flow[i][a] = flow[i].get(a, 0.0) + extra
                if part is unprocessed[i]:
                    unprocessed[i][a] = unprocessed[i].get(a, 0.0) + extra
    looped = EdgeFlowSolution(flow, unprocessed, sol.processing, sol.objective)
    got = _outcome(decompose, looped, net, demands)
    assert got == _outcome(whole_network_decompose, looped, net, demands)
    return 0 if isinstance(got, str) else sum(got[1]["cancelled_cycles"])


def _perturbed(sol, net, rng):
    """`sol`, then copies of it: with a circulation added to each demand's
    flow (and to its unprocessed part, every other demand), with 0.5 more
    flow on one arc a demand uses and on one it does not, with one
    processing value moved to another node, and with one flow value made
    NaN."""
    def copied():
        return EdgeFlowSolution([dict(f) for f in sol.flow], [dict(w) for w in sol.unprocessed],
                                [dict(p) for p in sol.processing], sol.objective)

    yield sol
    looped = copied()
    for i, (f, w) in enumerate(zip(looped.flow, looped.unprocessed)):
        for a in _random_cycle(net, rng) or ():
            f[a] = f.get(a, 0.0) + 0.25
            if i % 2:
                w[a] = w.get(a, 0.0) + 0.25
    yield looped
    routed = [i for i, f in enumerate(sol.flow) if f]
    if routed:
        bumped = copied()
        f = bumped.flow[rng.choice(routed)]
        f[rng.choice(sorted(f))] += 0.5
        yield bumped
        fresh = copied()
        f = fresh.flow[rng.choice(routed)]
        unused = [a for a in range(net.n_arcs) if a not in f]
        if unused:
            f[rng.choice(unused)] = 0.5
            yield fresh
        nan = copied()
        f = nan.flow[rng.choice(routed)]
        f[rng.choice(sorted(f))] = math.nan
        yield nan
    processed = [i for i, p in enumerate(sol.processing) if p]
    if processed:
        moved = copied()
        p = moved.processing[rng.choice(processed)]
        v = rng.choice(sorted(p))
        u = rng.choice([x for x in net.nodes if x != v])
        p[u] = p.get(u, 0.0) + p.pop(v)
        yield moved


def test_touched_node_scan_reports_as_the_whole_network_scan():
    # verify_edge_solution checks the balances only at the nodes that a
    # demand's flow, unprocessed and processing maps touch, since any other
    # balances at 0. On the LP's flows over the small corpus and
    # perfbench's exact shape, and on perturbed copies of them, its report
    # equals the scan of every node's full in- and out-lists, problem for
    # problem and in order
    rng = random.Random(34)
    shape = [gen_random_instance(16, 4.0 * 28 / (16 * 15), n_demands=14, seed=seed,
                                 directed=directed, max_arcs=28)
             for seed in range(5) for directed in (True, False)]
    reports = {False: 0, True: 0}
    for net, demands in [*_small_instances(), *((i.net, i.demands) for i in shape)]:
        sol, _ = solve_edge_lp(net, demands)
        for variant in _perturbed(sol, net, rng):
            got = verify_edge_solution(net, demands, variant).problems
            assert got == whole_network_verify_edge_solution(net, demands, variant)
            reports[bool(got)] += 1
    assert reports[False] and reports[True] > 100, reports
