"""Route-then-process baseline, in two phases.

Phase 1 (`route_paths`) solves plain max multi-commodity flow at full edge
capacity: the walk master over simple source->sink paths
(`lp.solve_walk_master` with `paths`), each processed on arrival at its
sink. It reads only the arcs, their groups and capacities and the demands,
never node capacity, so its answer holds for every processing capacity on
one topology: a capacity sweep solves it once.
Phase 2 (`process_paths`) walks each path in order and assigns processing
greedily at the first interior vertices that still have capacity left. Flow
that finds no processing on its own path is discarded; nothing is ever
re-routed. The gap to the LP optimum is the whole point of this algorithm,
so its weaknesses are deliberate and must stay.
"""

from __future__ import annotations

from .lp import master_walks, solve_walk_master
from .model import SNAP, Demand, FlowNetwork, WalkEntry, WalkFlowSolution


def route_paths(net: FlowNetwork, demands: list[Demand]) -> WalkFlowSolution:
    """Phase 1: the max-flow routing as simple paths, in demand order: the
    path master's walks (`lp.master_walks`), each processed at its sink,
    with the master's meta (`lp_iterations` its simplex iterations)."""
    routing = master_walks(net, demands, *solve_walk_master(net, demands, paths=True))
    routing.entries.sort(key=lambda e: e.demand)
    return routing


def process_paths(net: FlowNetwork, routing: WalkFlowSolution) -> WalkFlowSolution:
    """Phase 2: process along each routed path against `net`'s node
    capacities; `routing` must come from a network with the same arcs."""
    residual = {v: net.capacity(v) for v in net.nodes}
    entries: list[WalkEntry] = []
    for e in routing.entries:
        remaining = e.flow
        processing: dict[str, float] = {}
        for v in e.nodes[1:-1]:
            if remaining <= SNAP:
                break
            take = min(remaining, residual[v])
            if take > SNAP:
                processing[v] = processing.get(v, 0.0) + take
                residual[v] -= take
                remaining -= take
        processed = e.flow - remaining
        if processed > SNAP:
            entries.append(WalkEntry(e.demand, e.nodes, processed, processing))

    return WalkFlowSolution(entries, meta={
        "algorithm": "naive",
        "routed": routing.objective,
        "lp_iterations": routing.meta["lp_iterations"],
    })


def naive_solve(net: FlowNetwork, demands: list[Demand]) -> WalkFlowSolution:
    """Max-flow first, then process greedily along each chosen path."""
    return process_paths(net, route_paths(net, demands))
