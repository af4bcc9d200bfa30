"""Exhaustive reference computations the tests compare implementations against.

Everything here trades efficiency for obviousness: explicit enumeration of
2-walks, simple paths, and purchase subsets on instances small enough that
brute force is the ground truth. The only shared component with the package
under test is the LP backend; every formulation is built independently.
`solve_lp_linprog` reaches HiGHS through scipy's `linprog` front end instead,
by dual simplex with presolve; `solve_lp` must reach its status and optimum.
`shortest_processing_2walk` is the walk oracle in plain Python, two Dijkstra
passes that share no code with the package's pricing graph
(`pflow.lp._WalkGraph.price`): the tests check the graph's costs against it,
and it against enumeration (`brute_min_processing_walk_costs`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

import pflow.lp
from pflow.decompose import DecompositionError, extraction_bound
from pflow.generators import gen_random_instance
from pflow.lp import LPModel, LPResult, Objective, build_edge_lp, solve_lp
from pflow.model import (ABS_TOL, REL_TOL, SNAP, Demand, EdgeFlowSolution, FlowNetwork,
                         PurchaseInstance, ResourceLimitError, WalkEntry, WalkFlowSolution,
                         _capacity_problems, feas_slack)


def add_constraint(m: LPModel, coeffs, sense: str, rhs: float) -> int:
    """Add the row Σ coef x_j `sense` rhs to `m` over the sequence of (j,
    coef) pairs `coeffs`, summing pairs on one column, by one
    `LPModel.add_rows` call; ValueError on a bad sense or a j outside
    [0, n_vars). Returns the row's index."""
    if sense not in ("<=", ">=", "=="):
        raise ValueError(f"bad constraint sense {sense!r}")
    row = dict(coeffs)
    if len(row) < len(coeffs):
        row = {}
        for j, coef in coeffs:
            row[j] = row.get(j, 0.0) + coef
    if row and (min(row) < 0 or max(row) >= m.n_vars):
        raise ValueError(f"LP {m.name!r}: a row names a column outside [0, {m.n_vars})")
    m.add_rows(list(row), list(row.values()), [len(row)], [sense], [rhs])
    return m.n_rows - 1


class OracleBlowup(RuntimeError):
    pass


def enumerate_two_walks(net: FlowNetwork, source: str, sink: str,
                        max_walks: int = 500_000) -> list[tuple[str, ...]]:
    """All walks source->sink that visit no vertex more than twice.

    A walk may pass through the sink and return; every arrival at the sink
    emits the prefix as one walk.
    """
    walks: list[tuple[str, ...]] = []
    counts = {v: 0 for v in net.nodes}
    counts[source] = 1
    path = [source]

    def dfs(v: str) -> None:
        if v == sink:
            walks.append(tuple(path))
            if len(walks) > max_walks:
                raise OracleBlowup(f"more than {max_walks} walks")
        for a in net.out_arcs[v]:
            nxt = net.arcs[a].head
            if counts[nxt] >= 2:
                continue
            counts[nxt] += 1
            path.append(nxt)
            dfs(nxt)
            path.pop()
            counts[nxt] -= 1

    dfs(source)
    return walks


def processing_vertices(walk: tuple[str, ...], source: str, sink: str,
                        allow_endpoints: bool = False) -> list[str]:
    """Vertices at which flow on this walk may be processed, each once, in
    the order the walk first reaches them.

    Flow leaves the source unprocessed on every departure and must be
    processed before it first reaches the sink, so valid spots sit strictly
    between the walk's last visit to the source and its first visit to the
    sink. The purchase problems relax this and also allow the endpoints
    themselves (flow born processed at the source / processed on arrival).
    """
    last_s = max(j for j, v in enumerate(walk) if v == source)
    first_t = min(j for j, v in enumerate(walk) if v == sink)
    spots = walk[last_s + 1:first_t]
    if allow_endpoints:
        spots = (source, *spots, sink)
    return list(dict.fromkeys(spots))


def _group_multiplicity(net: FlowNetwork, walk: tuple[str, ...]) -> dict[int, int]:
    mult: dict[int, int] = {}
    for u, v in zip(walk, walk[1:]):
        g = net.arcs[net.arc_index[(u, v)]].group
        mult[g] = mult.get(g, 0) + 1
    return mult


def column_uses(net: FlowNetwork, col: tuple, paths: bool = False) -> list[tuple[int, int]]:
    """A master column's (resource index, times used) pairs, recounted from
    its arcs and its split: its processing vertex first, the head of its
    split-th arc, at edge_count + the vertex's place in `net.nodes` (a plain
    path has none), then each bandwidth group in the order the column first
    crosses it, with the number of its arcs in that group."""
    _, arcs, split = col
    groups = [net.arcs[a].group for a in arcs]
    counted = [(g, groups.count(g)) for j, g in enumerate(groups) if g not in groups[:j]]
    if paths:
        return counted
    return [(net.edge_count + net.nodes.index(net.arcs[arcs[split - 1]].head), 1)] + counted


def walk_lp_optimum(net: FlowNetwork, demands: list[Demand],
                    allow_endpoints: bool = False,
                    max_columns: int = 300_000) -> float:
    """Optimum of the LP over all (walk, processing vertex) route choices."""
    m = LPModel(name="walk-enum", sense="max")
    # each row's entries in column order, gathered as the columns are made
    group_rows: list[list[tuple[int, float]]] = [[] for _ in net.group_capacity]
    node_rows: dict[str, list[tuple[int, float]]] = {v: [] for v in net.nodes}
    demand_rows: list[list[tuple[int, float]]] = [[] for _ in demands]
    for i, d in enumerate(demands):
        for walk in enumerate_two_walks(net, d.source, d.sink):
            mult = _group_multiplicity(net, walk)
            for v in processing_vertices(walk, d.source, d.sink, allow_endpoints):
                if net.node_capacity[v] > 0:
                    var = m.add_var()
                    once = (var, 1.0)  # shared by the column's unit entries
                    for g, times in mult.items():
                        group_rows[g].append(once if times == 1 else (var, float(times)))
                    node_rows[v].append(once)
                    demand_rows[i].append(once)
    if m.n_vars > max_columns:
        raise OracleBlowup(f"{m.n_vars} columns")
    if not m.n_vars:
        return 0.0

    for g, cap in enumerate(net.group_capacity):
        if group_rows[g]:
            add_constraint(m, group_rows[g], "<=", cap)
    for v in net.nodes:
        if node_rows[v]:
            add_constraint(m, node_rows[v], "<=", net.node_capacity[v])
    for i, d in enumerate(demands):
        if math.isfinite(d.amount) and demand_rows[i]:
            add_constraint(m, demand_rows[i], "<=", d.amount)
    m.set_objective(dict.fromkeys(range(m.n_vars), 1.0))
    res = solve_lp(m)
    assert res.status == "optimal", res.status
    return res.objective


def edge_lp_optimum(net: FlowNetwork, demands: list[Demand],
                    kind: str = "max-total-flow") -> float:
    """The optimum of objective `kind` by the arc formulation,
    `pflow.lp.build_edge_lp` solved by `solve_lp`: the reference for the
    walks behind `pflow.lp.solve_edge_lp`, which must reach the same
    optimum. Raises InfeasibleError when the LP is infeasible."""
    res = solve_lp(build_edge_lp(net, demands, Objective(kind)))
    res.optimal_x("edge LP")
    return res.objective


def served_with_purchases(net: FlowNetwork, demands: list[Demand],
                          potential: dict[str, float], bought: set[str]) -> float:
    """Purchase-world served flow for a fixed purchase set, by walk enumeration."""
    caps = {v: (potential.get(v, 0.0) if v in bought else 0.0) for v in net.nodes}
    return walk_lp_optimum(net.with_node_capacity(caps), demands, allow_endpoints=True)


def min_purchase_bruteforce(net: FlowNetwork, demands: list[Demand],
                            potential: dict[str, float],
                            cost: dict[str, float]) -> tuple[float, set[str]] | None:
    """Cheapest purchase set meeting every demand in full, or None."""
    need = sum(d.amount for d in demands)
    candidates = [v for v, c in potential.items() if c > 0]
    best: tuple[float, set[str]] | None = None
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            price = sum(cost[v] for v in combo)
            if best is not None and price >= best[0]:
                continue
            got = served_with_purchases(net, demands, potential, set(combo))
            if got >= need - 1e-6:
                best = (price, set(combo))
    return best


def budgeted_purchase_bruteforce(net: FlowNetwork, demands: list[Demand],
                                 potential: dict[str, float], cost: dict[str, float],
                                 budget: float) -> tuple[float, set[str]]:
    """Best served value over all purchase sets within budget."""
    candidates = [v for v, c in potential.items() if c > 0]
    best_val, best_set = 0.0, set()
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if sum(cost[v] for v in combo) > budget + 1e-9:
                continue
            got = served_with_purchases(net, demands, potential, set(combo))
            if got > best_val + 1e-12:
                best_val, best_set = got, set(combo)
    return best_val, best_set


def best_single_exhaustive(cands: list[str], evaluate):
    """The best single vertex as an exhaustive scan finds it: every
    candidate evaluated, in the order given, and one kept only if strictly
    better than the best before it."""
    best = None
    for v in cands:
        sol = evaluate(v)
        if best is None or sol.value > best.value:
            best = sol
    return best


def max_flow_lp(nodes, arcs, group_cap, source, sink) -> tuple[float, list[float]]:
    """Max source->sink flow as an LP; arcs as (tail, head, group), caps per
    group, a group's capacity shared by all its arcs. The reference for
    `pflow.purchase._max_flow`. Returns the value and per-arc flows.
    """
    m = LPModel("maxflow", sense="max")
    var = [m.add_var() for _ in arcs]
    by_tail: dict[str, list[int]] = {v: [] for v in nodes}
    by_head: dict[str, list[int]] = {v: [] for v in nodes}
    for j, (tail, head, _) in enumerate(arcs):
        by_tail[tail].append(j)
        by_head[head].append(j)
    for u in nodes:
        if u in (source, sink):
            continue
        coeffs = [(var[j], 1.0) for j in by_head[u]]
        coeffs += [(var[j], -1.0) for j in by_tail[u]]
        if coeffs:
            add_constraint(m, coeffs, "==", 0.0)
    groups: dict[int, list[int]] = {}
    for j, (_, _, g) in enumerate(arcs):
        groups.setdefault(g, []).append(j)
    for g, members in groups.items():
        cap = group_cap[g]
        if math.isfinite(cap):
            add_constraint(m, [(var[j], 1.0) for j in members], "<=", cap)
    obj = {var[j]: 1.0 for j in by_tail[source]}
    for j in by_head[source]:
        obj[var[j]] = obj.get(var[j], 0.0) - 1.0
    m.set_objective(obj)
    res = solve_lp(m)
    assert res.status == "optimal", res.status
    return res.objective, res.x.tolist()


def _all_simple_path_costs(n: int, out: list[list[tuple[int, float]]],
                           s: int) -> list[float]:
    """Min cost over explicitly enumerated simple paths from s to every node."""
    best = [math.inf] * n
    best[s] = 0.0
    seen = [False] * n
    seen[s] = True

    def dfs(v: int, acc: float) -> None:
        for u, w in out[v]:
            if seen[u]:
                continue
            c = acc + w
            if c < best[u]:
                best[u] = c
            seen[u] = True
            dfs(u, c)
            seen[u] = False

    dfs(s, 0.0)
    return best


def brute_min_processing_walk_costs(n: int, arcs: list[tuple[int, int, float]],
                                    node_weight: list[float], s: int) -> list[float]:
    """For every target v: cheapest (path to u) + weight(u) + (path u to v).

    The two legs are enumerated as simple paths independently, which is
    exactly the space of 2-walks with one paid processing stop.
    """
    out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in arcs:
        out[u].append((v, w))
    from_s = _all_simple_path_costs(n, out, s)
    result = [math.inf] * n
    for u in range(n):
        if from_s[u] == math.inf or node_weight[u] == math.inf:
            continue
        base = from_s[u] + node_weight[u]
        if base == math.inf:
            continue
        from_u = _all_simple_path_costs(n, out, u)
        for v in range(n):
            if from_u[v] < math.inf:
                cand = base + from_u[v]
                if cand < result[v]:
                    result[v] = cand
    return result



# per network, the (head index, arc index) of each out-arc by node index
_ADJACENCY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _adjacency(net: FlowNetwork) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per node index, the (head index, arc index) of each out-arc: built on
    a network's first call, then kept for as long as the network lives."""
    adj = _ADJACENCY.get(net)
    if adj is None:
        adj = _ADJACENCY[net] = tuple(
            tuple((net.node_index(net.arcs[a].head), a) for a in net.out_arcs[v])
            for v in net.nodes)
    return adj


@dataclass(frozen=True)
class ShortestWalkResult:
    """Cheapest processed 2-walk costs from one source, with route recovery.

    r[v] is the minimum over walks source->v and processing vertices u on the
    walk of (sum of traversed arc costs) + node_cost(u). Unreachable targets
    carry inf. walk_to() rebuilds the argmin route for one target.
    """

    net: FlowNetwork
    source_idx: int
    dist: list[float]
    pred: list[int]
    r: list[float]  # per node index
    origin: list[int]  # arc into v on the processed leg, -1 at the seed

    def cost_to(self, target: str) -> float:
        return self.r[self.net.node_index(target)]

    def walk_to(self, target: str):
        """(node names, processing vertex, arc indices, leg-1 length) or None
        if unreachable. The first `leg-1 length` arcs run from the source to
        the processing vertex; the rest carry processed flow."""
        net = self.net
        x = net.node_index(target)
        if not math.isfinite(self.r[x]):
            return None
        leg2: list[int] = []
        while self.origin[x] >= 0:
            a = self.origin[x]
            leg2.append(a)
            x = net.node_index(net.arcs[a].tail)
        proc = x
        leg1: list[int] = []
        y = proc
        while y != self.source_idx:
            a = self.pred[y]
            if a < 0:
                raise AssertionError("finite r(v) without a first-leg path")
            leg1.append(a)
            y = net.node_index(net.arcs[a].tail)
        arcs = tuple(reversed(leg1)) + tuple(reversed(leg2))
        nodes = [net.nodes[self.source_idx]]
        for a in arcs:
            nodes.append(net.arcs[a].head)
        return tuple(nodes), net.nodes[proc], arcs, len(leg1)


def _bad_cost(c: float) -> str:
    return f"walk oracle: {'NaN' if math.isnan(c) else 'negative'} arc cost {c}"


def shortest_processing_2walk(net: FlowNetwork, edge_cost, node_cost,
                              source: str, sink: str | None = None) -> ShortestWalkResult:
    """Two chained Dijkstra passes over arc costs plus one node-cost charge.

    `edge_cost[a]` is read per arc index, so it must be a list or an
    int-keyed mapping that covers every arc. `node_cost` is either a list
    by node index, with inf where a node cannot process, or a mapping by
    node name, where a node it leaves out cannot process.

    Pass one computes plain distances d(v); pass two re-runs Dijkstra seeded
    with d(v) + node_cost(v), so settling v at cost r(v) means some walk
    reaches v with its processing already paid. Given the demand's `sink`,
    pass one skips the arcs `processing_bars` bars to unprocessed flow
    and pass two those it bars to processed flow, so walks to the sink
    follow the edge LP's rule; without it no arc is skipped.

    Both passes settle every node, so every r(v) is exact.

    Arc costs must be non-negative. An improving relaxation that would give
    a node a label below the one it is relaxed from raises ValueError: only
    a negative cost does that, and on a negative cycle Dijkstra would relax
    forever. A NaN cost counts as improving, so it raises too. The check
    runs only on improving relaxations. A NaN (or -inf) node cost raises
    ValueError too.
    """
    inf = math.inf
    src, adj = net.node_index(source), _adjacency(net)
    wadj = gadj = adj
    if sink is not None:  # `_adjacency`'s (head index, arc index) pairs, less the barred arcs
        wbar, gbar = processing_bars(net, source, sink)
        wadj = [[e for e in out if not wbar[e[1]]] for out in adj]
        gadj = [[e for e in out if not gbar[e[1]]] for out in adj]
    if not isinstance(node_cost, list):
        node_cost = [float(node_cost.get(v, inf)) for v in net.nodes]
    push, pop = heapq.heappush, heapq.heappop

    n = len(wadj)
    dist = [inf] * n
    pred = [-1] * n
    dist[src] = 0.0
    pq = [(0.0, src)]
    while pq:
        dv, v = pop(pq)
        if dv > dist[v]:
            continue
        for u, a in wadj[v]:
            nd = dv + edge_cost[a]
            # `not >=` rather than `<`, so that a NaN cost counts as improving
            if not nd >= dist[u]:
                if not nd >= dv:
                    raise ValueError(_bad_cost(edge_cost[a]))
                dist[u] = nd
                pred[u] = a
                push(pq, (nd, u))

    r = [inf] * n
    origin = [-1] * n
    pq = []
    for i, d in enumerate(dist):
        seed = d + node_cost[i]
        # `not >=` rather than `<`, so that a NaN cost gets in and raises
        if not seed >= inf:
            if not seed > -inf:
                raise ValueError(f"walk oracle: node cost {node_cost[i]} at {net.nodes[i]}")
            r[i] = seed
            pq.append((seed, i))
    heapq.heapify(pq)
    while pq:
        rv, v = pop(pq)
        if rv > r[v]:
            continue
        for u, a in gadj[v]:
            nr = rv + edge_cost[a]
            if not nr >= r[u]:
                if not nr >= rv:
                    raise ValueError(_bad_cost(edge_cost[a]))
                r[u] = nr
                origin[u] = a
                push(pq, (nr, u))

    return ShortestWalkResult(net, src, dist, pred, r, origin)

def solve_lp_linprog(model: LPModel) -> LPResult:
    """The model solved through scipy's `linprog(method="highs-ds")` front
    end: the reference for the status and optimum of `pflow.lp.solve_lp`,
    which hands HiGHS the LP itself and solves it by another method."""
    sign_of = {"<=": 1.0, ">=": -1.0, "==": 0.0}
    n = model.n_vars
    sign = np.array([sign_of[s] for s in model.senses])
    rhs = np.asarray(model.rhs, dtype=float)
    ub = sign != 0.0
    if n == 0:
        # every row reads 0, so the model is feasible iff each row holds at 0
        if np.all(sign[ub] * rhs[ub] >= 0.0) and np.all(rhs[~ub] == 0.0):
            return LPResult("optimal", np.zeros(0), 0.0, 0)
        return LPResult("infeasible", None, math.nan, 0)

    c = np.zeros(n)
    for j, coef in model.objective.items():
        c[j] = coef
    if model.sense == "max":
        c = -c

    maxiter = pflow.lp.MAXITER
    flip = np.where(ub, sign, 1.0)
    row_of = np.repeat(np.arange(model.n_rows), np.diff(model.starts))
    data = np.asarray(model.coefs, dtype=float) * flip[row_of]
    A = csr_matrix((data, model.cols, model.starts), shape=(model.n_rows, n))
    has_ub, has_eq = bool(ub.any()), not ub.all()
    res = linprog(c, A_ub=A[ub] if has_ub else None,
                  b_ub=(flip * rhs)[ub] if has_ub else None,
                  A_eq=A[~ub] if has_eq else None,
                  b_eq=rhs[~ub] if has_eq else None,
                  bounds=np.column_stack((model.lo, model.hi)),
                  method="highs-ds", options={"maxiter": maxiter})

    nit = int(getattr(res, "nit", 0) or 0)
    if res.status == 1:
        raise ResourceLimitError(f"simplex iteration limit {maxiter} exhausted")
    if res.status == 2:
        return LPResult("infeasible", None, math.nan, nit)
    if res.status == 3:
        return LPResult("unbounded", None, math.inf if model.sense == "max" else -math.inf, nit)
    if res.status != 0:
        raise ResourceLimitError(f"solver failed with status {res.status}: {res.message}")

    obj = float(res.fun)
    if model.sense == "max":
        obj = -obj
    return LPResult("optimal", res.x, obj, nit)


def _balance(net: FlowNetwork, var, v: str) -> list[tuple[int, float]]:
    """Inflow minus outflow at node v of the per-arc columns `var[a]`."""
    return ([(var[a], 1.0) for a in net.in_arcs[v]]
            + [(var[a], -1.0) for a in net.out_arcs[v]])


def mixed_routing_instances():
    """Seeded routing instances, directed and undirected, whose demands mix
    capped and uncapped amounts."""
    rng = random.Random(1515)
    for seed in range(12):
        inst = gen_random_instance(rng.randint(4, 9), 0.45, n_demands=rng.randint(1, 4),
                                   seed=seed, directed=seed % 2 == 0)
        demands = [Demand(d.source, d.sink, rng.choice([math.inf, float(rng.randint(1, 6))]))
                   for d in inst.demands]
        yield inst.net, demands


def master_instances():
    """`mixed_routing_instances` as they are, again with every third node and
    every third bandwidth group at capacity 0, and again without demands."""
    for net, demands in mixed_routing_instances():
        yield net, demands
        edges = [(net.arcs[arcs[0]].tail, net.arcs[arcs[0]].head, 0.0 if g % 3 == 0 else cap)
                 for g, (arcs, cap) in enumerate(zip(net.groups, net.group_capacity))]
        caps = {v: 0.0 if j % 3 == 0 else net.node_capacity[v]
                for j, v in enumerate(net.nodes)}
        yield FlowNetwork(net.nodes, edges, caps, directed=net.directed), demands
        yield net, []


def seeded_instances():
    """The master's instances, then small cases at the edges of the seed: no
    node can process; a demand without a walk beside one with; a capped
    demand below its walk's bottleneck; zero-capacity groups and nodes on
    the cheaper side of a fork; no demands."""
    yield from master_instances()
    line = [("s", "a", 2.0), ("a", "t", 2.0)]
    yield FlowNetwork("sat", line), [Demand("s", "t")]
    yield FlowNetwork("satu", line, {"a": 2.0}), [Demand("s", "u"), Demand("s", "t")]
    yield FlowNetwork("sat", [("s", "a", 5.0), ("a", "t", 5.0)], {"a": 4.0}), \
        [Demand("s", "t", 2.0)]
    fork = [("s", "a", 0.0), ("a", "t", 3.0), ("s", "b", 3.0), ("b", "t", 3.0),
            ("s", "c", 2.0), ("c", "t", 2.0)]
    yield FlowNetwork("sabct", fork, {"a": 5.0, "b": 0.0, "c": 1.5}, directed=False), \
        [Demand("s", "t"), Demand("t", "s", 1.0)]
    yield FlowNetwork("sabct", fork, {"a": 5.0, "b": 0.0, "c": 1.5}), []


def net_outflow_routing_lp(net: FlowNetwork, demands: list[Demand],
                           group_cap) -> LPModel:
    """Plain multicommodity max flow, blind to processing: the reference for
    the path master (`pflow.lp.solve_walk_master` with `paths`) that routes
    the naive baseline and the purchase greedy, which must reach the same
    optimum.

    Column i * n_arcs + a is demand i's flow on arc a. Flow is conserved away
    from each demand's endpoints, a finite amount caps the demand's net
    source outflow, each bandwidth group g carries at most group_cap[g] over
    all demands, and the objective is the total net source outflow.
    """
    m = LPModel("route", sense="max")
    for _ in range(len(demands) * net.n_arcs):
        m.add_var()
    obj: dict[int, float] = {}
    for i, d in enumerate(demands):
        fvar = range(i * net.n_arcs, (i + 1) * net.n_arcs)
        for v in net.nodes:
            if v != d.source and v != d.sink:
                add_constraint(m, _balance(net, fvar, v), "==", 0.0)
        net_out = [(j, -coef) for j, coef in _balance(net, fvar, d.source)]
        if math.isfinite(d.amount):
            add_constraint(m, net_out, "<=", d.amount)
        for j, coef in net_out:
            obj[j] = obj.get(j, 0.0) + coef
    for g, arcs in enumerate(net.groups):
        add_constraint(m, [(i * net.n_arcs + a, 1.0) for i in range(len(demands))
                          for a in arcs], "<=", group_cap[g])
    m.set_objective(obj)
    return m


def arc_leg_purchase_lp(inst: PurchaseInstance, mode: str = "min",
                        budget_cap: float | None = None,
                        fix: dict[str, float] | None = None) -> LPModel:
    """The purchase relaxation as legs, the reference for
    `pflow.purchase.build_purchase_lp`, which must reach the same optimum.

    Variables: x(v) in [0,1] per candidate, plus the two leg flows per
    (demand, candidate, arc). A leg pair routes unprocessed flow source->v
    (forbidden to leave v or to enter the source, so it terminates where it
    is processed) and processed flow v->sink (forbidden to enter v or leave
    the sink). A candidate coinciding with the demand's own source or sink
    collapses to a single leg: processed at departure (all flow leaves the
    source already processed) or on arrival (the whole route is unprocessed
    and conversion happens at the sink). Cover-style reductions lean on
    these degenerate legs, so they are first-class here.

    Coupling: processing at v <= C(v)x(v); per candidate, the flow its legs
    put on an edge <= B(e)x(v); per demand, what its v-legs deliver <=
    R_i x(v). On top of these, each edge carries the summed load of ALL legs
    of ALL demands, so the aggregate must fit the actual capacity B(e); any
    integral purchase satisfies that bound, hence adding it keeps the LP a
    relaxation while making rounded superpositions fit in expectation.

    `mode` "min": minimize total purchase cost, serve every demand in full.
    "budgeted": maximize served flow, demands become upper bounds, and the
    purchase cost is capped by `budget_cap` (pass None to drop the cap, e.g.
    when `fix` pins the purchase vector to an integral point and the cost is
    known anyway).

    `fix` pins x(v) to fix.get(v, 0). A candidate pinned to 0 keeps its x
    column but gets no leg columns and none of the rows its legs would feed:
    served <= R x = 0 and processing <= C x = 0 let such legs deliver
    nothing, so dropping them leaves the optimum as it is.
    """
    net = inst.net
    cands = inst.candidates()
    m = LPModel(f"purchase-{mode}", sense="min" if mode == "min" else "max")

    xvar: dict[str, int] = {}
    for v in cands:
        lo, hi = 0.0, 1.0
        if fix is not None:
            lo = hi = float(fix.get(v, 0.0))
        xvar[v] = m.add_var(lo, hi)
    opened = [v for v in cands if fix is None or fix.get(v, 0.0) != 0.0]

    pre: dict[tuple[int, str], list[int]] = {}
    post: dict[tuple[int, str], list[int]] = {}
    served_terms: dict[tuple[int, str], list[tuple[int, float]]] = {}
    proc_terms: dict[tuple[int, str], list[tuple[int, float]]] = {}

    for i, d in enumerate(inst.demands):
        for v in opened:
            if v == d.source or v == d.sink:
                # degenerate leg: one end of the itinerary IS the processing
                # point, so a single source->sink flow carries everything
                blocked = set(net.in_arcs[d.source]) | set(net.out_arcs[d.sink])
                fv = [m.add_var(hi=0.0 if a in blocked else math.inf)
                      for a in range(net.n_arcs)]
                if v == d.source:
                    post[(i, v)] = fv
                else:
                    pre[(i, v)] = fv
                for u in net.nodes:
                    if u != d.source and u != d.sink:
                        _conserve(m, _balance(net, fv, u))
                served_terms[(i, v)] = [(fv[a], 1.0)
                                        for a in net.out_arcs[d.source]]
                if v == d.source:
                    proc_terms[(i, v)] = list(served_terms[(i, v)])
                else:
                    proc_terms[(i, v)] = [(fv[a], 1.0)
                                          for a in net.in_arcs[d.sink]]
                continue
            # unprocessed leg: may not leave v, may not re-enter the source
            blocked = set(net.out_arcs[v]) | set(net.in_arcs[d.source])
            pv = [m.add_var(hi=0.0 if a in blocked else math.inf)
                  for a in range(net.n_arcs)]
            # processed leg: may not enter v, may not leave the sink
            blocked = set(net.in_arcs[v]) | set(net.out_arcs[d.sink])
            qv = [m.add_var(hi=0.0 if a in blocked else math.inf)
                  for a in range(net.n_arcs)]
            pre[(i, v)] = pv
            post[(i, v)] = qv

            for u in net.nodes:
                if u != d.source and u != v:
                    _conserve(m, _balance(net, pv, u))
                if u != v and u != d.sink:
                    _conserve(m, _balance(net, qv, u))
            # everything delivered to v unprocessed leaves it processed
            coeffs = [(pv[a], 1.0) for a in net.in_arcs[v]]
            coeffs += [(qv[a], -1.0) for a in net.out_arcs[v]]
            add_constraint(m, coeffs, "==", 0.0)

            served_terms[(i, v)] = [(pv[a], 1.0) for a in net.out_arcs[d.source]]
            proc_terms[(i, v)] = [(pv[a], 1.0) for a in net.in_arcs[v]]

    for i, d in enumerate(inst.demands):
        terms = []
        for v in opened:
            terms += served_terms[(i, v)]
        sense = ">=" if mode == "min" else "<="
        if terms or mode == "min":
            add_constraint(m, terms, sense, d.amount)
        for v in opened:
            coeffs = list(served_terms[(i, v)]) + [(xvar[v], -d.amount)]
            add_constraint(m, coeffs, "<=", 0.0)

    for v in opened:
        coeffs = []
        for i in range(len(inst.demands)):
            coeffs += proc_terms[(i, v)]
        coeffs.append((xvar[v], -inst.potential[v]))
        add_constraint(m, coeffs, "<=", 0.0)

    for g, arcs in enumerate(net.groups):
        if not math.isfinite(net.group_capacity[g]):
            continue
        total = []
        for v in opened:
            coeffs = []
            for i in range(len(inst.demands)):
                for leg in (pre.get((i, v)), post.get((i, v))):
                    if leg is None:
                        continue
                    coeffs += [(leg[a], 1.0) for a in arcs]
            total += coeffs
            coeffs.append((xvar[v], -net.group_capacity[g]))
            add_constraint(m, coeffs, "<=", 0.0)
        if total:
            add_constraint(m, total, "<=", net.group_capacity[g])

    if mode == "min":
        m.set_objective({xvar[v]: inst.price(v) for v in cands})
    else:
        obj: dict[int, float] = {}
        for terms in served_terms.values():
            for var, coef in terms:
                obj[var] = obj.get(var, 0.0) + coef
        m.set_objective(obj)
        if budget_cap is not None:
            coeffs = [(xvar[v], inst.price(v)) for v in cands]
            add_constraint(m, coeffs, "<=", budget_cap)

    m.info = {"x": xvar, "pre": pre, "post": post,
              "served": served_terms, "processed": proc_terms, "mode": mode}
    return m


def _conserve(m: LPModel, coeffs: list[tuple[int, float]]) -> None:
    """A conservation row, skipped at a node with no arcs."""
    if coeffs:
        add_constraint(m, coeffs, "==", 0.0)


def balance(net: FlowNetwork, var: dict[int, int], v: str,
            sign: float = 1.0) -> list[tuple[int, float]]:
    """Inflow minus outflow at node v, times `sign`, of the per-arc columns
    `var` ({arc: column}, arcs without a column carry nothing): the terms
    of a conservation row."""
    return ([(var[a], sign) for a in net.in_arcs[v] if a in var]
            + [(var[a], -sign) for a in net.out_arcs[v] if a in var])


def processing_bars(net: FlowNetwork, source: str,
                    sink: str) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """The processing rule of a `source`->`sink` demand, one arc at a time,
    as (w's bars, g's bars): the reference for `FlowNetwork.bars`. w never
    enters either endpoint or leaves the sink; g never enters the source
    or leaves either endpoint."""
    w = tuple(a.head in (source, sink) or a.tail == sink for a in net.arcs)
    g = tuple(a.head == source or a.tail in (source, sink) for a in net.arcs)
    return w, g


def legs(net: FlowNetwork, source: str, sink: str,
         v: str) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """The leg rule of a `source`->`sink` demand processed at v, one arc at a
    time, as (w's bars, g's bars): the reference for `FlowNetwork.legs`. w
    never enters the source or leaves v, and is barred everywhere when v is
    the source; g never enters v or leaves the sink, and is barred
    everywhere when v is the sink."""
    w = tuple(v == source or a.head == source or a.tail == v for a in net.arcs)
    g = tuple(v == sink or a.head == v or a.tail == sink for a in net.arcs)
    return w, g


def row_by_row_commodity(m: LPModel, net: FlowNetwork, d: Demand, wbar, gbar,
                         p_at: list[str]
                         ) -> tuple[dict[int, int], dict[int, int], dict[str, int]]:
    """One demand's split flow, as `pflow.lp.commodities` lays it out, built
    one checked `add_constraint` row at a time: the reference for the rows
    that `commodities` writes in bulk, which must be the same, entry for
    entry. Columns: per arc, w then g where the bar lists leave it open,
    then p at each node of `p_at`. An arc u->u enters and leaves u, so it is
    in no row."""
    w: dict[int, int] = {}
    g: dict[int, int] = {}
    for a in range(net.n_arcs):
        if not wbar[a]:
            w[a] = m.add_var()
        if not gbar[a]:
            g[a] = m.add_var()
    p = {v: m.add_var() for v in p_at}
    loop = {a for a, arc in enumerate(net.arcs) if arc.tail == arc.head}
    w_rows = {a: j for a, j in w.items() if a not in loop}
    g_rows = {a: j for a, j in g.items() if a not in loop}
    for v in net.nodes:
        at = [(p[v], 1.0)] if v in p else []
        if v != d.source and (row := at + balance(net, w_rows, v, -1.0)):
            add_constraint(m, row, "==", 0.0)
        if v != d.sink and (row := at + balance(net, g_rows, v)):
            add_constraint(m, row, "==", 0.0)
    return w, g, p


def row_by_row_edge_lp(net: FlowNetwork, demands: list[Demand],
                       objective: Objective = Objective()) -> LPModel:
    """`pflow.lp.build_edge_lp` built one checked `add_constraint` row at a
    time, on `row_by_row_commodity`: the reference its bulk rows must equal,
    entry for entry. Per demand its commodity under `processing_bars`
    (no column on a group or node of capacity 0 under congestion) and its
    source outflow row; then per group its load w + g, arc by arc (w of
    every demand, then g), and per node its Σp, demand by demand."""
    kind = objective.kind
    congestion = kind != "max-total-flow"
    m = LPModel(name=f"edge-{kind}", sense="min" if congestion else "max")
    wvar, gvar, pvar, net_out = [], [], [], []
    shut = [congestion and net.group_capacity[arc.group] <= 0 for arc in net.arcs]
    for d in demands:
        wbar, gbar = processing_bars(net, d.source, d.sink)
        p_at = [v for v in net.nodes
                if v != d.source and not (congestion and net.node_capacity[v] <= 0)]
        w, g, p = row_by_row_commodity(m, net, d, [b or s for b, s in zip(wbar, shut)],
                                       [b or s for b, s in zip(gbar, shut)], p_at)
        wvar.append(w)
        gvar.append(g)
        pvar.append(p)
        out_i = [(w[a], 1.0) for a in net.out_arcs[d.source] if a in w]
        if congestion:
            add_constraint(m, out_i, "==", d.amount)
        elif math.isfinite(d.amount) and out_i:
            add_constraint(m, out_i, "<=", d.amount)
        net_out += out_i
    theta = m.add_var() if kind == "min-max-congestion" else None
    ew, nw = objective.edge_weights or {}, objective.node_weights or {}
    loads = [([(part[a], 1.0) for a in arcs for part in wvar + gvar if a in part],
              cap, ew.get(g, 1.0))
             for g, (arcs, cap) in enumerate(zip(net.groups, net.group_capacity))]
    loads += [([(p[v], 1.0) for p in pvar if v in p], net.node_capacity[v], nw.get(v, 1.0))
              for v in net.nodes]
    obj = {theta: 1.0} if theta is not None else {} if congestion else dict(net_out)
    for coeffs, cap, weight in loads:
        if not coeffs:
            continue
        if not congestion:
            add_constraint(m, coeffs, "<=", cap)
        elif theta is not None:
            add_constraint(m, coeffs + [(theta, -cap)], "<=", 0.0)
        else:
            obj.update((j, weight * c / cap) for j, c in coeffs)
    m.set_objective(obj)
    return m


def row_by_row_purchase_lp(inst: PurchaseInstance, mode: str = "min",
                           budget_cap: float | None = None,
                           fix: dict[str, float] | None = None) -> LPModel:
    """`pflow.purchase.build_purchase_lp` built one checked `add_constraint`
    row at a time, on `row_by_row_commodity` under `legs`: the reference
    for the rows it writes in bulk, which must be the same, entry for entry.
    """
    net = inst.net
    nd = len(inst.demands)
    m = LPModel(f"purchase-{mode}", sense="min" if mode == "min" else "max")
    xvar: dict[str, int] = {}
    for v in inst.candidates():
        if fix is None:
            xvar[v] = m.add_var(0.0, 1.0)
        elif fix.get(v, 0.0) != 0.0:
            xvar[v] = m.add_var(float(fix[v]), float(fix[v]))
    wvar, gvar, pvar = {}, {}, {}
    for i, d in enumerate(inst.demands):
        for v in xvar:
            wvar[i, v], gvar[i, v], p = row_by_row_commodity(
                m, net, d, *legs(net, d.source, d.sink, v), [v])
            pvar[i, v] = p[v]

    sense = ">=" if mode == "min" else "<="
    for i, d in enumerate(inst.demands):
        if xvar or mode == "min":
            add_constraint(m, [(pvar[i, v], 1.0) for v in xvar], sense, d.amount)
        for v in xvar:
            add_constraint(m, [(pvar[i, v], 1.0), (xvar[v], -d.amount)], "<=", 0.0)
    for v in xvar:
        coeffs = [(pvar[i, v], 1.0) for i in range(nd)]
        coeffs.append((xvar[v], -inst.potential[v]))
        add_constraint(m, coeffs, "<=", 0.0)
    for k, arcs in enumerate(net.groups):
        cap = net.group_capacity[k]
        if not math.isfinite(cap):
            continue
        total = []
        for v in xvar:
            coeffs = [(part[i, v][a], 1.0) for i in range(nd)
                      for part in (wvar, gvar) for a in arcs if a in part[i, v]]
            total += coeffs
            coeffs.append((xvar[v], -cap))
            add_constraint(m, coeffs, "<=", 0.0)
        if xvar and nd:
            add_constraint(m, total, "<=", cap)
    if mode == "min":
        m.set_objective({j: inst.price(v) for v, j in xvar.items()})
    else:
        m.set_objective(dict.fromkeys(pvar.values(), 1.0))
        if budget_cap is not None:
            add_constraint(m, [(j, inst.price(v)) for v, j in xvar.items()], "<=",
                             budget_cap)
    return m


# --- the whole-network decomposition ------------------------------------------

def _whole_network_cycle(net: FlowNetwork, value: list[float]) -> list[int] | None:
    """Some directed cycle among arcs with value[a] > SNAP, as arc indices,
    by a depth-first search from every node in node order."""
    color = {v: 0 for v in net.nodes}
    parent: dict[str, int] = {}
    for start in net.nodes:
        if color[start]:
            continue
        color[start] = 1
        stack = [(start, iter(net.out_arcs[start]))]
        while stack:
            v, arcs = stack[-1]
            advanced = False
            for a in arcs:
                if value[a] <= SNAP:
                    continue
                u = net.arcs[a].head
                if color[u] == 1:
                    cycle = [a]
                    x = v
                    while x != u:
                        pa = parent[x]
                        cycle.append(pa)
                        x = net.arcs[pa].tail
                    cycle.reverse()
                    return cycle
                if color[u] == 0:
                    color[u] = 1
                    parent[u] = a
                    stack.append((u, iter(net.out_arcs[u])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def _subtract(value: list[float], arcs, delta: float) -> None:
    for a in arcs:
        value[a] -= delta
        if value[a] < SNAP:
            value[a] = 0.0


def _whole_network_cancel(net: FlowNetwork, value: list[float]) -> int:
    count = 0
    while (cycle := _whole_network_cycle(net, value)) is not None:
        _subtract(value, cycle, min(value[a] for a in cycle))
        count += 1
    return count


def _whole_network_extract(net: FlowNetwork, d: Demand, index: int, w: list[float],
                           g: list[float], p: dict[str, float]
                           ) -> tuple[list[WalkEntry], int]:
    """Walks out of one commodity's cancelled parts, each starting at the
    first node in node order with p > SNAP, every trace scanning a node's
    full in- or out-list."""
    def rho(a: int) -> float:
        return w[a] / (w[a] + g[a])

    entries: list[WalkEntry] = []
    iterations = 0
    bound = extraction_bound(net)
    while True:
        v = next((x for x in net.nodes if p.get(x, 0.0) > SNAP), None)
        if v is None:
            break
        iterations += 1
        if iterations > bound:
            raise DecompositionError(f"extraction did not converge in {bound} steps")
        back: list[int] = []
        u = v
        while u != d.source:
            a = max((a for a in net.in_arcs[u] if w[a] > SNAP), key=rho, default=None)
            if a is None:
                raise DecompositionError(f"no unprocessed flow into {u!r} while tracing back")
            back.append(a)
            u = net.arcs[a].tail
            if len(back) > net.n_arcs:
                raise DecompositionError("backward trace loops; cancellation incomplete")
        fwd: list[int] = []
        u = v
        phantom = False
        while u != d.sink:
            a = min((a for a in net.out_arcs[u] if g[a] > SNAP), key=rho, default=None)
            if a is None:
                if u == d.source:
                    phantom = True
                    break
                raise DecompositionError(f"no processed flow out of {u!r} while tracing forward")
            fwd.append(a)
            u = net.arcs[a].head
            if len(fwd) > net.n_arcs:
                raise DecompositionError("forward trace loops; cancellation incomplete")
        delta = min([p[v]] + [w[a] for a in back] + [g[a] for a in fwd])
        _subtract(w, back, delta)
        _subtract(g, fwd, delta)
        p[v] -= delta
        if p[v] < SNAP:
            del p[v]
        if not phantom:
            nodes = [d.source]
            for a in reversed(back):
                nodes.append(net.arcs[a].head)
            for a in fwd:
                nodes.append(net.arcs[a].head)
            entries.append(WalkEntry(index, tuple(nodes), delta, {v: delta}))
    return entries, iterations


def whole_network_decompose(edge_sol: EdgeFlowSolution, net: FlowNetwork,
                            demands: list[Demand]) -> WalkFlowSolution:
    """`pflow.decompose` as it scanned the whole network per commodity: w
    and g as lists over every arc, p from every node's full in- and
    out-lists, cycle searches from every node. The reference that the
    support-only scan must equal, entry for entry and in its meta."""
    entries: list[WalkEntry] = []
    extractions: list[int] = []
    cancelled: list[int] = []
    for i, d in enumerate(demands):
        flow, unprocessed = edge_sol.flow[i], edge_sol.unprocessed[i]
        w = [unprocessed.get(a, 0.0) for a in range(net.n_arcs)]
        g = [flow.get(a, 0.0) - w[a] for a in range(net.n_arcs)]
        p: dict[str, float] = {}
        for v in net.nodes:
            if v == d.source:
                continue
            bal = sum(w[a] for a in net.in_arcs[v]) - sum(w[a] for a in net.out_arcs[v])
            if bal > SNAP:
                p[v] = bal
        cancelled.append(_whole_network_cancel(net, w) + _whole_network_cancel(net, g))
        got, iters = _whole_network_extract(net, d, i, w, g, p)
        entries.extend(got)
        extractions.append(iters)
    meta = dict(edge_sol.meta)
    meta["extractions"] = extractions
    meta["cancelled_cycles"] = cancelled
    return WalkFlowSolution(entries, meta=meta)


def whole_network_verify_edge_solution(net: FlowNetwork, demands: list[Demand],
                                       sol: EdgeFlowSolution) -> list[str]:
    """The problems `pflow.model.verify_edge_solution` reports, as it found
    them by scanning every node's full in- and out-lists for each demand,
    under the rule written out one arc at a time (`processing_bars`). The
    reference that the scan of only the nodes a demand's maps touch must
    equal, problem for problem and in order; the capacity check is the
    package's own (`_capacity_problems`)."""
    problems = []
    for i, d in enumerate(demands):
        f, w, p = sol.flow[i], sol.unprocessed[i], sol.processing[i]
        for part, m in (("flow", f), ("unprocessed flow", w)):
            for idx, val in m.items():
                if not math.isfinite(val):
                    a = net.arcs[idx]
                    problems.append(f"demand {i} arc {a.tail}->{a.head}: non-finite "
                                    f"{part} {val}")
        for v, val in p.items():
            if not math.isfinite(val):
                problems.append(f"demand {i} node {v}: non-finite processing {val}")
        scale = max([1.0] + [abs(x) for x in f.values()])
        tol = max(ABS_TOL, REL_TOL * scale)
        wbar, gbar = processing_bars(net, d.source, d.sink)
        for idx in set(f) | set(w):
            fv, wv = f.get(idx, 0.0), w.get(idx, 0.0)
            a = net.arcs[idx]
            if fv < -tol or wv < -tol:
                problems.append(f"demand {i} arc {a.tail}->{a.head}: negative flow")
            if wv > fv + tol:
                problems.append(
                    f"demand {i} arc {a.tail}->{a.head}: unprocessed {wv} > total {fv}")
            barred = (wv if wbar[idx] else 0.0) + (fv - wv if gbar[idx] else 0.0)
            if barred > tol:
                problems.append(f"demand {i}: barred flow {barred} on arc {a.tail}->{a.head}")
        for v in net.nodes:
            fin = sum(f.get(a, 0.0) for a in net.in_arcs[v])
            fout = sum(f.get(a, 0.0) for a in net.out_arcs[v])
            win = sum(w.get(a, 0.0) for a in net.in_arcs[v])
            wout = sum(w.get(a, 0.0) for a in net.out_arcs[v])
            if v not in (d.source, d.sink) and abs(fin - fout) > tol:
                problems.append(
                    f"demand {i} node {v}: conservation off by {fin - fout}")
            if v != d.source:
                pv = p.get(v, 0.0)
                if abs(pv - (win - wout)) > tol:
                    problems.append(
                        f"demand {i} node {v}: processing {pv} != unprocessed balance {win - wout}")
                if pv < -tol:
                    problems.append(f"demand {i} node {v}: negative processing {pv}")
        if p.get(d.source, 0.0) > tol:
            problems.append(f"demand {i}: processing at source {d.source}")
        got = sol.delivered(net, demands, i)
        if got > d.amount + feas_slack(d.amount):
            problems.append(f"demand {i}: delivered {got} exceeds requested {d.amount}")
    return problems + _capacity_problems(net, sol)
