"""Width-free multiplicative-weights solver for processed-flow routing.

One expert per bandwidth constraint (an undirected edge contributes a single
expert shared by its two arcs) and one per node with processing capacity.
Each round finds the cheapest valid processing 2-walk under the current
weights, loads it until its tightest edge or its processing vertex saturates,
and multiplies the touched experts' weights by (1+eps)^gain. The run stops
when any weight passes 1; dividing all placed flow by the peak constraint
utilization then yields a feasible solution within (1-eps) of the LP optimum.

All of a round's processing lands on the single vertex that minimizes
weight/capacity along the walk. Spreading it over the other walk vertices
proportionally to C(v) looks natural but silently charges the C-weighted
average of weight/capacity while the round was priced at the minimum, and
that gap compounds into measurably sub-(1-eps) results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .model import (
    Demand,
    FlowNetwork,
    ResourceLimitError,
    WalkEntry,
    WalkFlowSolution,
)


@dataclass(frozen=True)
class MWUConfig:
    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")


def default_delta(epsilon: float, n_edges: int) -> float:
    """Initial expert weight (1+eps)*((1+eps)*E)^(-1/eps).

    Chosen so that the stopping rule caps every constraint's pre-scaling
    usage at capacity times log_{1+eps}((1+eps)/delta).
    """
    e = max(n_edges, 1)
    log_d = math.log1p(epsilon) - math.log((1.0 + epsilon) * e) / epsilon
    delta = math.exp(log_d)
    if delta <= 0.0 or not math.isfinite(delta):
        raise ResourceLimitError(
            f"initial weight underflows for epsilon={epsilon}; use a larger epsilon")
    return delta


def scaling_factor(epsilon: float, delta: float) -> float:
    """log_{1+eps}((1+eps)/delta): the analytic worst-case utilization."""
    return math.log((1.0 + epsilon) / delta) / math.log1p(epsilon)


def iteration_bound(n_nodes: int, n_edges: int, epsilon: float, delta: float) -> float:
    """Analytic cap on rounds: (|V|+|E|) * ln(1/(|E|*delta)) / eps."""
    e = max(n_edges, 1)
    return (n_nodes + e) * math.log(1.0 / (e * delta)) / epsilon


class ShortestWalkResult:
    """Cheapest processed 2-walk costs from one source, with route recovery.

    r[v] is the minimum over walks source->v and processing vertices u on the
    walk of (sum of traversed arc costs) + node_cost(u). Unreachable targets
    carry inf. walk_to() rebuilds the argmin route for one target.
    """

    __slots__ = ("net", "source_idx", "dist", "pred", "r", "origin")

    def __init__(self, net, source_idx, dist, pred, r, origin):
        self.net = net
        self.source_idx = source_idx
        self.dist = dist
        self.pred = pred
        self.r = r          # per node index
        self.origin = origin  # arc into v on the processed leg, -1 at the seed

    def cost_to(self, target: str) -> float:
        return self.r[self.net.node_index(target)]

    def walk_to(self, target: str):
        """(node names, processing vertex, arc indices) or None if unreachable."""
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
        return tuple(nodes), net.nodes[proc], arcs


def _adjacency(net: FlowNetwork):
    """Flat per-node lists of (head index, arc index) for the hot loops."""
    idx = {v: i for i, v in enumerate(net.nodes)}
    adj: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
    for a, arc in enumerate(net.arcs):
        adj[idx[arc.tail]].append((idx[arc.head], a))
    return adj


def shortest_processing_2walk(net: FlowNetwork, edge_cost, node_cost,
                              source: str,
                              forbid_first=(), forbid_second=()) -> ShortestWalkResult:
    """Two chained Dijkstra passes over arc costs plus one node-cost charge.

    Pass one computes plain distances d(v); pass two re-runs Dijkstra seeded
    with d(v) + node_cost(v), so settling v at cost r(v) means some walk
    reaches v with its processing already paid. forbid_first / forbid_second
    name nodes that must not be *entered* during the respective pass (used to
    keep the unprocessed leg away from a demand's sink and the processed leg
    away from its source); they never block a node from seeding.
    """
    n = net.n_nodes
    adj = _adjacency(net)
    cost = [float(edge_cost[a]) for a in range(net.n_arcs)]
    src = net.node_index(source)
    inf = math.inf

    block1 = [False] * n
    for v in forbid_first:
        block1[net.node_index(v)] = True
    dist = [inf] * n
    pred = [-1] * n
    dist[src] = 0.0
    pq = [(0.0, src)]
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        for u, a in adj[v]:
            if block1[u]:
                continue
            nd = dv + cost[a]
            if nd < dist[u]:
                dist[u] = nd
                pred[u] = a
                heapq.heappush(pq, (nd, u))

    block2 = [False] * n
    for v in forbid_second:
        block2[net.node_index(v)] = True
    r = [inf] * n
    origin = [-1] * n
    pq = []
    for i, name in enumerate(net.nodes):
        nc = float(node_cost.get(name, inf))
        seed = dist[i] + nc if math.isfinite(dist[i]) and math.isfinite(nc) else inf
        if seed < inf:
            r[i] = seed
            pq.append((seed, i))
    heapq.heapify(pq)
    while pq:
        rv, v = heapq.heappop(pq)
        if rv > r[v]:
            continue
        for u, a in adj[v]:
            if block2[u]:
                continue
            nr = rv + cost[a]
            if nr < r[u]:
                r[u] = nr
                origin[u] = a
                heapq.heappush(pq, (nr, u))

    return ShortestWalkResult(net, src, dist, pred, r, origin)


@dataclass
class MWUState:
    """Everything the outer loop mutates between rounds."""

    net: FlowNetwork
    demands: list[Demand]
    epsilon: float
    delta: float
    group_gain: list[float] = field(default_factory=list)   # per coupling group
    node_gain: dict[str, float] = field(default_factory=dict)  # nodes with C>0
    active: list[bool] = field(default_factory=list)
    placed_raw: list[float] = field(default_factory=list)   # pre-scaling per demand
    placements: list[tuple[int, tuple, float, dict]] = field(default_factory=list)
    iteration: int = 0
    stopped: bool = False

    def __post_init__(self):
        if not self.group_gain:
            self.group_gain = [0.0] * len(self.net.group_capacity)
        if not self.node_gain:
            self.node_gain = {v: 0.0 for v in self.net.nodes if self.net.capacity(v) > 0}
        if not self.active:
            self.active = [True] * len(self.demands)
        if not self.placed_raw:
            self.placed_raw = [0.0] * len(self.demands)

    def weight(self, gain: float) -> float:
        return self.delta * (1.0 + self.epsilon) ** gain

    # weight > 1  <=>  gain > log_{1+eps}(1/delta)
    @property
    def gain_limit(self) -> float:
        return -math.log(self.delta) / math.log1p(self.epsilon)


def _arc_costs(state: MWUState) -> list[float]:
    net = state.net
    group_w = [state.weight(g) for g in state.group_gain]
    out = []
    for arc in net.arcs:
        cap = net.group_capacity[arc.group]
        out.append(group_w[arc.group] / cap if cap > 0 else math.inf)
    return out


def _node_costs(state: MWUState) -> dict[str, float]:
    net = state.net
    return {v: state.weight(g) / net.capacity(v) for v, g in state.node_gain.items()}


def mwu_iterate(state: MWUState):
    """Run one round; returns the placement or None if nothing routable.

    The placement is (demand index, walk nodes, flow, processing split).
    Demands whose remaining pre-scaling budget hits zero drop out of later
    rounds; the round that exhausts a budget places the clamped remainder.
    """
    if state.stopped:
        raise RuntimeError("solver already stopped")
    net, demands = state.net, state.demands
    arc_cost = _arc_costs(state)
    base_node_cost = _node_costs(state)
    sigma = scaling_factor(state.epsilon, state.delta)

    best = None  # (cost, demand idx, walk nodes, processing vertex, arcs)
    for i, d in enumerate(demands):
        if not state.active[i]:
            continue
        node_cost = dict(base_node_cost)
        node_cost[d.source] = math.inf
        node_cost[d.sink] = math.inf
        res = shortest_processing_2walk(net, arc_cost, node_cost, d.source,
                                        forbid_first=(d.sink,),
                                        forbid_second=(d.source,))
        c = res.cost_to(d.sink)
        if not math.isfinite(c):
            state.active[i] = False  # structurally no valid processing walk
            continue
        if best is None or c < best[0] - 1e-15:
            got = res.walk_to(d.sink)
            best = (c, i, got[0], got[1], got[2])

    if best is None:
        state.stopped = True
        return None
    _, i, nodes, v_star, arcs = best
    d = demands[i]

    mult: dict[int, int] = {}
    for a in arcs:
        g = net.arcs[a].group
        mult[g] = mult.get(g, 0) + 1
    bw_limit = min(net.group_capacity[g] / m for g, m in mult.items())
    flow = min(bw_limit, net.capacity(v_star))

    if d.amount is not None and math.isfinite(d.amount):
        budget = d.amount * sigma
        remaining = budget - state.placed_raw[i]
        if flow >= remaining - 1e-12:
            flow = max(remaining, 0.0)
            state.active[i] = False
    if flow <= 0.0:
        state.iteration += 1
        return None

    processing = {v_star: flow}
    limit = state.gain_limit
    for g, m in mult.items():
        state.group_gain[g] += m * flow / net.group_capacity[g]
        if state.group_gain[g] > limit:
            state.stopped = True
    state.node_gain[v_star] += flow / net.capacity(v_star)
    if state.node_gain[v_star] > limit:
        state.stopped = True

    state.placed_raw[i] += flow
    state.iteration += 1
    placement = (i, nodes, flow, processing)
    state.placements.append(placement)
    return placement


def mwu_solve(net: FlowNetwork, demands: list[Demand],
              config: MWUConfig = MWUConfig()) -> WalkFlowSolution:
    """Full run: iterate to the stopping rule, then scale to feasibility.

    Scaling divides by the peak measured utilization (load over capacity,
    including per-demand limits); the stopping rule bounds that peak by
    log_{1+eps}((1+eps)/delta), so this is at least as much flow as the
    uniform analytic scale-down while staying exactly feasible.
    """
    n_edges = net.edge_count
    delta = default_delta(config.epsilon, n_edges)
    bound = iteration_bound(net.n_nodes, n_edges, config.epsilon, delta)
    guard = max(1000, int(4 * bound) + 1)  # hard guard: 4x the analytic bound

    empty_meta = {
        "algorithm": "mwu", "epsilon": config.epsilon, "delta": delta,
        "iterations": 0, "iteration_bound": bound, "scale": 1.0,
        "sigma": scaling_factor(config.epsilon, delta),
    }
    if not demands or all(net.capacity(v) <= 0 for v in net.nodes):
        return WalkFlowSolution([], meta=empty_meta)

    state = MWUState(net, demands, config.epsilon, delta)
    while not state.stopped and any(state.active):
        if state.iteration >= guard:
            raise ResourceLimitError(
                f"mwu exceeded the iteration guard of {guard}; "
                f"epsilon={config.epsilon} may be pathologically small")
        mwu_iterate(state)

    group_load = [0.0] * len(net.group_capacity)
    node_load: dict[str, float] = {}
    demand_load = [0.0] * len(demands)
    merged: dict[tuple[int, tuple], tuple[float, dict]] = {}
    for i, nodes, flow, processing in state.placements:
        demand_load[i] += flow
        seen: dict[int, int] = {}
        for j in range(len(nodes) - 1):
            a = net.arc_index[(nodes[j], nodes[j + 1])]
            g = net.arcs[a].group
            seen[g] = seen.get(g, 0) + 1
        for g, m in seen.items():
            group_load[g] += m * flow
        for v, amt in processing.items():
            node_load[v] = node_load.get(v, 0.0) + amt
        key = (i, nodes)
        old_f, old_p = merged.get(key, (0.0, {}))
        for v, amt in processing.items():
            old_p[v] = old_p.get(v, 0.0) + amt
        merged[key] = (old_f + flow, old_p)

    peak = 0.0
    for g, load in enumerate(group_load):
        if load > 0:
            peak = max(peak, load / net.group_capacity[g])
    for v, load in node_load.items():
        if load > 0:
            peak = max(peak, load / net.capacity(v))
    scale = max(peak, 1.0) * (1.0 + 1e-12)
    # shared constraints scale together; a demand that still overshoots its
    # cap shrinks alone, which cannot disturb any shared load
    demand_scale = [scale] * len(demands)
    for i, d in enumerate(demands):
        if demand_load[i] > 0 and d.amount is not None and math.isfinite(d.amount):
            if demand_load[i] / scale > d.amount:
                demand_scale[i] = (demand_load[i] / d.amount) * (1.0 + 1e-12)

    entries = [
        WalkEntry(i, nodes, flow / demand_scale[i],
                  {v: amt / demand_scale[i] for v, amt in proc.items()})
        for (i, nodes), (flow, proc) in merged.items()
    ]
    meta = dict(empty_meta)
    meta.update(iterations=state.iteration, scale=scale,
                stopped_by="weight" if state.stopped else "demands")
    return WalkFlowSolution(entries, meta=meta)
