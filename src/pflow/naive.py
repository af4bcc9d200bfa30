"""Route-then-process baseline, in two phases.

Phase 1 (`route_paths`) solves plain max multi-commodity flow (the routing
LP of `lp.build_routing_lp` at full edge capacity: one `lp.commodity` per
demand, processed on arrival at its sink), cancels its cycles and splits it
into simple paths with `decompose.extract_walks`, traced back from the sink.
It reads only the arcs, their groups and capacities and the demands, never
node capacity, so its answer holds for every processing capacity on one
topology: a capacity sweep solves it once.
Phase 2 (`process_paths`) walks each path in order and assigns processing
greedily at the first interior vertices that still have capacity left. Flow
that finds no processing on its own path is discarded; nothing is ever
re-routed. The gap to the LP optimum is the whole point of this algorithm,
so its weaknesses are deliberate and must stay.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import cancel_cycles, extract_walks
from .lp import build_routing_lp, solve_lp
from .model import SNAP, Demand, FlowNetwork, WalkEntry, WalkFlowSolution


@dataclass(frozen=True)
class Routing:
    """Phase 1's output: (demand index, path, amount) in processing order,
    the total routed and the routing LP's iteration count."""

    paths: list[tuple[int, tuple[str, ...], float]]
    routed: float
    iterations: int


def route_paths(net: FlowNetwork, demands: list[Demand]) -> Routing:
    """Phase 1: the max-flow routing, split into paths per demand."""
    model = build_routing_lp(net, demands, net.group_capacity)
    res = solve_lp(model)
    x = res.optimal_x("routing LP").tolist()

    paths = []
    routed = 0.0
    for i, d in enumerate(demands):
        w = [0.0] * net.n_arcs
        for a, j in model.info["w"][i].items():
            w[a] = x[j] if x[j] >= SNAP else 0.0
        cancel_cycles(net, w)
        # the sink's inflow after snapping, so that it matches w exactly
        inflow = sum(w[a] for a in net.in_arcs[d.sink])
        entries, _ = extract_walks(net, d, i, w, [0.0] * net.n_arcs, {d.sink: inflow})
        for e in entries:
            routed += e.flow
            paths.append((i, e.nodes, e.flow))
    return Routing(paths, routed, res.iterations)


def process_paths(net: FlowNetwork, routing: Routing) -> WalkFlowSolution:
    """Phase 2: process along each routed path against `net`'s node
    capacities; `routing` must come from a network with the same arcs."""
    residual = {v: net.capacity(v) for v in net.nodes}
    entries: list[WalkEntry] = []
    for i, path, amount in routing.paths:
        remaining = amount
        processing: dict[str, float] = {}
        for v in path[1:-1]:
            if remaining <= SNAP:
                break
            take = min(remaining, residual[v])
            if take > SNAP:
                processing[v] = processing.get(v, 0.0) + take
                residual[v] -= take
                remaining -= take
        processed = amount - remaining
        if processed > SNAP:
            entries.append(WalkEntry(i, path, processed, processing))

    return WalkFlowSolution(entries, meta={
        "algorithm": "naive",
        "routed": routing.routed,
        "lp_iterations": routing.iterations,
    })


def naive_solve(net: FlowNetwork, demands: list[Demand]) -> WalkFlowSolution:
    """Max-flow first, then process greedily along each chosen path."""
    return process_paths(net, route_paths(net, demands))
