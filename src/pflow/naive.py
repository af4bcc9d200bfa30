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

from dataclasses import dataclass

from .lp import solve_walk_master
from .model import SNAP, Demand, FlowNetwork, WalkEntry, WalkFlowSolution


@dataclass(frozen=True)
class Routing:
    """Phase 1's output: (demand index, path, amount) in processing order,
    the total routed and the path master's simplex iterations."""

    paths: list[tuple[int, tuple[str, ...], float]]
    routed: float
    iterations: int


def route_paths(net: FlowNetwork, demands: list[Demand]) -> Routing:
    """Phase 1: the max-flow routing as simple paths, in demand order: the
    path master's columns that carry more than SNAP."""
    _, res, cols = solve_walk_master(net, demands, paths=True)
    paths = []
    for (i, arcs, _), amount in sorted(zip(cols, res.x.tolist()), key=lambda cx: cx[0][0]):
        if amount > SNAP:
            nodes = (net.arcs[arcs[0]].tail, *(net.arcs[a].head for a in arcs))
            paths.append((i, nodes, amount))
    return Routing(paths, sum(amount for _, _, amount in paths), res.iterations)


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
