"""Turn a feasible arc-level processed-flow solution into explicit 2-walks.

Input contract: a feasible edge solution for the given network and demands,
such as `lp.solve_edge_lp` returns or a document that passed
`verify_edge_solution`. Values are read as they are; nothing is clamped.

Each commodity's flow splits into the paper's two parts: unprocessed w and
processed g = flow - unprocessed. After cancelling the cycles that lie
entirely in one part, every remaining unit can be pulled out as a walk: from
a node with processed volume, trace w backwards to the source and g forwards
to the sink, each leg guided by the unprocessed fraction rho = w/(w+g).
Cancellation leaves both part-subgraphs acyclic, so the two legs are simple
paths and their concatenation visits no vertex more than twice.
"""

from __future__ import annotations

from .model import SNAP, Demand, EdgeFlowSolution, FlowNetwork, WalkEntry, WalkFlowSolution


class DecompositionError(RuntimeError):
    """Input flows were not internally consistent (infeasible or corrupted)."""


def _find_cycle(net: FlowNetwork, value: list[float]) -> list[int] | None:
    """Some directed cycle among arcs with value[a] > SNAP, as arc indices."""
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


def subtract(value: list[float], arcs, delta: float) -> None:
    """Take `delta` off value[a] for each arc in `arcs`, snapping dust to 0."""
    for a in arcs:
        value[a] -= delta
        if value[a] < SNAP:
            value[a] = 0.0


def cancel_cycles(net: FlowNetwork, value: list[float]) -> int:
    """Cancel every directed cycle of one per-arc list in place.

    Each pass removes the bottleneck value of one cycle, so at least one arc
    drops to zero. Returns the number of cancelled cycles.
    """
    count = 0
    while (cycle := _find_cycle(net, value)) is not None:
        subtract(value, cycle, min(value[a] for a in cycle))
        count += 1
    return count


def extraction_bound(net: FlowNetwork) -> int:
    """Worst-case extractions per commodity: each zeroes a w, g, or p term."""
    return net.n_nodes + 2 * net.n_arcs


def extract_walks(net: FlowNetwork, d: Demand, index: int, w: list[float],
                  g: list[float], p: dict[str, float]) -> tuple[list[WalkEntry], int]:
    """Pull processing-anchored walks out of one commodity's cancelled parts.

    `p` maps each node to its processed volume. Tracing back takes the first
    in-arc with w > SNAP of largest rho; tracing forward, the first out-arc
    with g > SNAP of smallest rho. w, g and p are consumed in place.

    Returns (entries, iterations). Iterations may exceed len(entries): a
    degenerate optimum can hold a zero-value loop that leaves the source
    unprocessed, gets processed, and returns; its forward trace ends back at
    the source and is cancelled without emitting a walk. Any other dead end
    means the input was not a feasible flow and raises DecompositionError.
    """
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
        subtract(w, back, delta)
        subtract(g, fwd, delta)
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


def decompose(edge_sol: EdgeFlowSolution, net: FlowNetwork,
              demands: list[Demand]) -> WalkFlowSolution:
    """Per commodity: split into w and g, cancel their cycles, extract walks."""
    entries: list[WalkEntry] = []
    extractions: list[int] = []
    cancelled: list[int] = []
    for i, d in enumerate(demands):
        flow, unprocessed = edge_sol.flow[i], edge_sol.unprocessed[i]
        w = [unprocessed.get(a, 0.0) for a in range(net.n_arcs)]
        g = [flow.get(a, 0.0) - w[a] for a in range(net.n_arcs)]
        # processed volume is re-derived from the unprocessed balance so it
        # is exactly consistent with w
        p: dict[str, float] = {}
        for v in net.nodes:
            if v == d.source:
                continue
            bal = sum(w[a] for a in net.in_arcs[v]) - sum(w[a] for a in net.out_arcs[v])
            if bal > SNAP:
                p[v] = bal
        cancelled.append(cancel_cycles(net, w) + cancel_cycles(net, g))
        got, iters = extract_walks(net, d, i, w, g, p)
        entries.extend(got)
        extractions.append(iters)
    meta = dict(edge_sol.meta)
    meta["extractions"] = extractions
    meta["cancelled_cycles"] = cancelled
    return WalkFlowSolution(entries, meta=meta)
