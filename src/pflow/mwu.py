"""Width-free multiplicative-weights solver for processed-flow routing.

One expert per bandwidth constraint (an undirected edge contributes a single
expert shared by its two arcs) and one per node with processing capacity.
Each round finds the cheapest valid processing 2-walk under the current
weights, loads it until its tightest edge or its processing vertex saturates,
and multiplies the touched experts' weights by (1+eps)^gain. The run stops
when any weight passes 1; dividing all placed flow by the peak constraint
utilization then yields a feasible solution.

What that solution is worth follows the maximum multicommodity flow analysis
of N. Garg and J. Koenemann, "Faster and simpler algorithms for
multicommodity flow and other fractional packing problems", SIAM J. Comput.
37(2), 2007. When no demand is capped, each round raises the total weight D
of the M experts by at most eps * flow * walk cost, so D passes 1 only after
OPT * ln(1/(M delta)) / eps units are placed, and no constraint is used
beyond log_{1+eps}((1+eps)/delta) times its capacity. The value is therefore
at least

    OPT * ln(1+eps) * ln(1/(M delta)) / (eps * ln((1+eps)/delta)).

With the delta of `default_delta`, built from the |E| bandwidth budgets,
that factor is at least (1-eps)(1-eps/2) >= (1-eps)^2 when M <= |E|, and
node experts that push M past |E| lower it further. It is not (1-eps): at
eps=0.1 a 60-node random instance gets 0.894 of the LP optimum.

Weights only grow, so a demand's last walk cost is a lower bound on its
current one. A round therefore reprices demands cheapest bound first and
stops once no stale bound could still win (the argument Garg-Koenemann and
Fleischer 2000 build on); arc and node costs change only for the experts the
round's walk touched. The round's cheapest cost alpha is exact, so with D the
total weight of the experts with capacity, D/alpha bounds the optimum from
above (weak duality); when no demand is capped, the least such value is
reported as meta["upper_bound"].

One search prices every walk: `shortest_processing_2walk`, two chained
Dijkstra passes on node indices over a plan built once per network and
(source, sink) pair, the out-arcs `FlowNetwork.barred` leaves open to each
pass. A round calls it once for each demand it reprices, with node costs
kept as a list by node index, and asks it to end pass two once the sink is
settled: costs are non-negative, so the sink's cost and the walk that leads
to it are final then, and a round reads nothing else. Only the round's
winner has its walk rebuilt.

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


def _walk_plan(net: FlowNetwork, source: str, sink: str):
    """What the walk oracle searches for a `source`->`sink` demand: (source
    index, sink index, out-arcs open to unprocessed flow, out-arcs open to
    processed flow). The out-arcs are `FlowNetwork.adjacency`'s (head index,
    arc index) pairs, per node index, less the arcs `FlowNetwork.barred`
    bars to that part. Built once per network and pair, and handed on by
    `FlowNetwork.with_node_capacity`."""
    wbar, gbar = net.barred(source, sink)
    adj = net.adjacency
    plan = net._walk_plans[source, sink] = (
        net.node_index(source), net.node_index(sink),
        tuple(tuple(e for e in out if not wbar[e[1]]) for out in adj),
        tuple(tuple(e for e in out if not gbar[e[1]]) for out in adj))
    return plan


def shortest_processing_2walk(net: FlowNetwork, edge_cost, node_cost,
                              source: str, sink: str | None = None, *,
                              stop_at_sink: bool = False) -> ShortestWalkResult:
    """Two chained Dijkstra passes over arc costs plus one node-cost charge.

    `edge_cost[a]` is read per arc index, so it must be a list or an
    int-keyed mapping that covers every arc. `node_cost` is either a list
    by node index, with inf where a node cannot process, or a mapping by
    node name, where a node it leaves out cannot process.

    Pass one computes plain distances d(v); pass two re-runs Dijkstra seeded
    with d(v) + node_cost(v), so settling v at cost r(v) means some walk
    reaches v with its processing already paid. Given the demand's `sink`,
    the passes run on its plan (`_walk_plan`): pass one skips the arcs
    `FlowNetwork.barred` bars to unprocessed flow and pass two those it
    bars to processed flow, so walks to the sink follow the edge LP's rule;
    without it no arc is skipped.

    Both passes settle every node, so every r(v) is exact, unless a `sink`
    is given with `stop_at_sink`: then pass two ends once the sink is
    settled. Costs are non-negative, so r(sink) and the walk to the sink
    are final by then, while other labels may still be too high. MWU
    prices each demand this way, with list node costs; the tests check it
    against the full search.

    Arc costs must be non-negative. An improving relaxation that would give
    a node a label below the one it is relaxed from raises ValueError: only
    a negative cost does that, and on a negative cycle Dijkstra would relax
    forever. A NaN cost counts as improving, so it raises too. The check
    runs only on improving relaxations. A NaN (or -inf) node cost raises
    ValueError too.
    """
    inf = math.inf
    if sink is None:
        src, stop = net.node_index(source), -1
        wadj = gadj = net.adjacency
    else:
        plan = net._walk_plans.get((source, sink)) or _walk_plan(net, source, sink)
        src, stop, wadj, gadj = plan
        if not stop_at_sink:
            stop = -1
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
        if v == stop:
            break
        for u, a in gadj[v]:
            nr = rv + edge_cost[a]
            if not nr >= r[u]:
                if not nr >= rv:
                    raise ValueError(_bad_cost(edge_cost[a]))
                r[u] = nr
                origin[u] = a
                push(pq, (nr, u))

    return ShortestWalkResult(net, src, dist, pred, r, origin)


# A repriced demand displaces the round's running best only if it is cheaper
# by more than _TIE, so among near-ties the lowest index wins.
_TIE = 1e-15
# Stale costs are repriced while within this relative margin of the cheapest
# fresh cost, which also absorbs rounding in the weights' powers.
_REPRICE_MARGIN = 1e-9


@dataclass
class MWUState:
    """Everything the outer loop mutates between rounds.

    `group_weight`, `node_weight`, `arc_cost`, `node_cost`, `total_weight`
    and the loads follow the expert weights and change only where a round's
    walk touched them. `node_cost` is read by node index and holds inf where
    a node cannot process, the form `shortest_processing_2walk` reads
    without converting. `heap` holds (last walk cost, demand index) for
    every active demand; weights only grow, so each entry bounds that
    demand's current cost from below. `alpha` is the cheapest cost the last
    `_reprice` found.
    """

    net: FlowNetwork
    demands: list[Demand]
    epsilon: float
    delta: float
    group_gain: list[float] = field(init=False)   # per coupling group
    node_gain: dict[str, float] = field(init=False)  # nodes with C>0
    group_weight: list[float] = field(init=False)  # weight(group_gain[g])
    node_weight: dict[str, float] = field(init=False)  # weight(node_gain[v])
    active: list[bool] = field(init=False)
    placed_raw: list[float] = field(init=False)   # pre-scaling per demand
    budget: list[float] = field(init=False)  # pre-scaling cap: amount * sigma
    placements: list[tuple[int, tuple, float, dict]] = field(init=False)
    iteration: int = field(default=0, init=False)
    stopped: bool = field(default=False, init=False)
    # min over rounds of total_weight / (round's cheapest walk cost); an upper
    # bound on the optimum when no demand is capped
    upper_bound: float = field(default=math.inf, init=False)
    alpha: float = field(default=math.inf, init=False)
    arc_cost: list[float] = field(init=False)
    node_cost: list[float] = field(init=False)
    total_weight: float = field(init=False)  # experts with capacity > 0
    group_load: list[float] = field(init=False)   # pre-scaling, per group
    node_load: dict[str, float] = field(init=False)
    heap: list[tuple[float, int]] = field(init=False)
    sinks: list[int] = field(init=False)  # node index per demand
    # weight > 1  <=>  gain > log_{1+eps}(1/delta)
    gain_limit: float = field(init=False)

    def __post_init__(self):
        net, node_caps = self.net, self.net.node_capacity
        self.group_gain = [0.0] * len(net.group_capacity)
        self.node_gain = {v: 0.0 for v in net.nodes if node_caps[v] > 0}
        self.active = [True] * len(self.demands)
        self.placed_raw = [0.0] * len(self.demands)
        sigma = scaling_factor(self.epsilon, self.delta)
        self.budget = [d.amount * sigma for d in self.demands]
        self.placements = []
        self.group_weight = group_w = [self.weight(g) for g in self.group_gain]
        caps = net.group_capacity
        self.arc_cost = [group_w[a.group] / caps[a.group] if caps[a.group] > 0
                         else math.inf for a in net.arcs]
        self.node_weight = node_w = {v: self.weight(g) for v, g in self.node_gain.items()}
        self.node_cost = [node_w[v] / node_caps[v] if v in node_w else math.inf
                          for v in net.nodes]
        self.total_weight = (sum(w for w, c in zip(group_w, caps) if c > 0)
                             + sum(node_w.values()))
        self.group_load = [0.0] * len(caps)
        self.node_load = {}
        self.heap = [(0.0, i) for i, on in enumerate(self.active) if on]
        self.sinks = [net.node_index(d.sink) for d in self.demands]
        self.gain_limit = -math.log(self.delta) / math.log1p(self.epsilon)

    def weight(self, gain: float) -> float:
        return self.delta * (1.0 + self.epsilon) ** gain


def _reprice(state: MWUState) -> dict[int, tuple[float, ShortestWalkResult]]:
    """Walk costs of every demand that could win this round, by index.

    Demands leave the heap cheapest bound first and are priced until the next
    bound exceeds the cheapest fresh cost by the margin plus 2*_TIE per active
    demand. The winner of the index-order scan in `mwu_iterate` is decided by
    the cheapest cost and a chain of near-ties above it, each link at most
    2*_TIE (the rounding of `best - _TIE` included) and at most one per
    demand, so no demand left stale could change it. A demand with no valid
    walk drops out. The cheapest fresh cost is kept as `state.alpha`.

    Each demand is priced by one call of `shortest_processing_2walk` that
    stops at its sink: a round reads only the sink's cost, and the walk to
    the sink of the round's winner.
    """
    net, demands, heap, sinks = state.net, state.demands, state.heap, state.sinks
    arc_cost, node_cost = state.arc_cost, state.node_cost
    slack = 2.0 * _TIE * len(heap)
    fresh = {}
    alpha = math.inf
    while heap and heap[0][0] <= alpha * (1.0 + _REPRICE_MARGIN) + slack:
        _, i = heapq.heappop(heap)
        d = demands[i]
        res = shortest_processing_2walk(net, arc_cost, node_cost, d.source, d.sink,
                                        stop_at_sink=True)
        c = res.r[sinks[i]]
        if not math.isfinite(c):
            state.active[i] = False  # structurally no valid processing walk
            continue
        fresh[i] = (c, res)
        alpha = min(alpha, c)
    state.alpha = alpha
    return fresh


def mwu_iterate(state: MWUState):
    """Run one round; returns the placement or None if nothing routable.

    The placement is (demand index, walk nodes, flow, processing split).
    Demands whose remaining pre-scaling budget hits zero drop out of later
    rounds; the round that exhausts a budget places the clamped remainder.
    """
    if state.stopped:
        raise RuntimeError("solver already stopped")
    net, demands = state.net, state.demands
    fresh = _reprice(state)

    best = None  # (cost, demand idx)
    for i in sorted(fresh):
        c = fresh[i][0]
        if best is None or c < best[0] - _TIE:
            best = (c, i)
    if best is None:
        state.upper_bound = 0.0  # no demand has a valid walk
        return None
    # the scan may settle on a near-tie above the round's exact minimum
    alpha = state.alpha
    if alpha > 0.0:
        state.upper_bound = min(state.upper_bound, state.total_weight / alpha)
    i = best[1]
    d = demands[i]
    nodes, v_star, arcs, _ = fresh[i][1].walk_to(d.sink)

    mult: dict[int, int] = {}
    for a in arcs:
        g = net.arcs[a].group
        mult[g] = mult.get(g, 0) + 1
    caps, v_cap = net.group_capacity, net.node_capacity[v_star]
    bw_limit = min(caps[g] / m for g, m in mult.items())
    flow = min(bw_limit, v_cap)

    if math.isfinite(d.amount):
        remaining = state.budget[i] - state.placed_raw[i]
        if flow >= remaining - 1e-12:
            flow = max(remaining, 0.0)
            state.active[i] = False
    for j, (c, _) in fresh.items():
        if state.active[j]:
            heapq.heappush(state.heap, (c, j))
    if flow <= 0.0:
        state.iteration += 1
        return None

    processing = {v_star: flow}
    limit = state.gain_limit
    for g, m in mult.items():
        cap = caps[g]
        state.group_gain[g] += m * flow / cap
        w = state.weight(state.group_gain[g])
        state.total_weight += w - state.group_weight[g]
        state.group_weight[g] = w
        for a in net.groups[g]:
            state.arc_cost[a] = w / cap
        state.group_load[g] += m * flow
        if state.group_gain[g] > limit:
            state.stopped = True
    state.node_gain[v_star] += flow / v_cap
    w = state.weight(state.node_gain[v_star])
    state.total_weight += w - state.node_weight[v_star]
    state.node_weight[v_star] = w
    state.node_cost[net.node_index(v_star)] = w / v_cap
    state.node_load[v_star] = state.node_load.get(v_star, 0.0) + flow
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

    Every path returns the same meta keys. `stopped_by` is "weight" once a
    weight passed 1 and "demands" when no demand was left to route (caps met,
    no valid walk, or nothing to route at all); `upper_bound` is present
    exactly when no demand is capped.
    """
    n_edges = net.edge_count
    delta = default_delta(config.epsilon, n_edges)
    bound = iteration_bound(net.n_nodes, n_edges, config.epsilon, delta)
    guard = max(1000, int(4 * bound) + 1)  # hard guard: 4x the analytic bound

    meta = {
        "algorithm": "mwu", "epsilon": config.epsilon, "delta": delta,
        "iterations": 0, "iteration_bound": bound, "scale": 1.0,
        "sigma": scaling_factor(config.epsilon, delta), "stopped_by": "demands",
    }
    # the bound prices edges and nodes only; capped demands would need duals
    uncapped = all(not math.isfinite(d.amount) for d in demands)
    if not demands or all(net.capacity(v) <= 0 for v in net.nodes):
        if uncapped:
            meta["upper_bound"] = 0.0
        return WalkFlowSolution([], meta=meta)

    state = MWUState(net, demands, config.epsilon, delta)
    while not state.stopped and any(state.active):
        if state.iteration >= guard:
            raise ResourceLimitError(
                f"mwu exceeded the iteration guard of {guard}; "
                f"epsilon={config.epsilon} may be pathologically small")
        mwu_iterate(state)

    merged: dict[tuple[int, tuple], tuple[float, dict]] = {}
    for i, nodes, flow, processing in state.placements:
        key = (i, nodes)
        old_f, old_p = merged.get(key, (0.0, {}))
        for v, amt in processing.items():
            old_p[v] = old_p.get(v, 0.0) + amt
        merged[key] = (old_f + flow, old_p)

    peak = 0.0
    for g, load in enumerate(state.group_load):
        if load > 0:
            peak = max(peak, load / net.group_capacity[g])
    for v, load in state.node_load.items():
        if load > 0:
            peak = max(peak, load / net.capacity(v))
    scale = max(peak, 1.0) * (1.0 + 1e-12)
    # shared constraints scale together; a demand that still overshoots its
    # cap shrinks alone, which cannot disturb any shared load
    demand_load = state.placed_raw
    demand_scale = [scale] * len(demands)
    for i, d in enumerate(demands):
        if demand_load[i] > 0 and math.isfinite(d.amount):
            if demand_load[i] / scale > d.amount:
                demand_scale[i] = (demand_load[i] / d.amount) * (1.0 + 1e-12)

    entries = [
        WalkEntry(i, nodes, flow / demand_scale[i],
                  {v: amt / demand_scale[i] for v, amt in proc.items()})
        for (i, nodes), (flow, proc) in merged.items()
    ]
    meta.update(iterations=state.iteration, scale=scale,
                stopped_by="weight" if state.stopped else "demands")
    if uncapped:
        meta["upper_bound"] = state.upper_bound
    return WalkFlowSolution(entries, meta=meta)
