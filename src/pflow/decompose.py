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

Each commodity is read only on its support, the arcs its `flow` and
`unprocessed` maps name: w and g are maps over those arcs, each node's in-
and out-arcs among them are kept in arc-index order, and the processed
volume comes from the support's nodes in node order. The cycle searches
start from the support's tails in node order and extraction from the first
node in node order with processed volume left. So a commodity costs time
in proportion to its support, not to the network (as in Ahuja, Magnanti
and Orlin, "Network Flows", 1993, section 3.5), and the walks, their order
and the meta come out exactly as a scan of the whole network gives them.
"""

from __future__ import annotations

from .model import SNAP, Demand, EdgeFlowSolution, FlowNetwork, WalkEntry, WalkFlowSolution


class DecompositionError(RuntimeError):
    """Input flows were not internally consistent (infeasible or corrupted)."""


def _find_cycle(net: FlowNetwork, value, out: dict) -> list[int] | None:
    """Some directed cycle among arcs with value[a] > SNAP, as arc indices:
    a depth-first search from each node `out` maps to its out-arcs, in the
    order of its keys, over those lists."""
    arcs = net.arcs
    color: dict[str, int] = {}
    parent: dict[str, int] = {}
    for start in out:
        if color.get(start):
            continue
        color[start] = 1
        stack = [(start, iter(out[start]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for a in it:
                if value[a] <= SNAP:
                    continue
                u = arcs[a].head
                seen = color.get(u)
                if seen == 1:
                    cycle = [a]
                    x = v
                    while x != u:
                        pa = parent[x]
                        cycle.append(pa)
                        x = arcs[pa].tail
                    cycle.reverse()
                    return cycle
                if not seen:
                    color[u] = 1
                    parent[u] = a
                    stack.append((u, iter(out.get(u, ()))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def subtract(value, arcs, delta: float) -> None:
    """Take `delta` off value[a] for each arc in `arcs`, snapping dust to 0."""
    for a in arcs:
        value[a] -= delta
        if value[a] < SNAP:
            value[a] = 0.0


def _cancel(net: FlowNetwork, value, out: dict) -> int:
    """Cancel every directed cycle of one per-arc value in place, over the
    out-lists `out`, which `_find_cycle` searches; `value` may be a map
    over their arcs alone.

    Each pass removes the bottleneck value of one cycle, so at least one arc
    drops to zero. Returns the number of cancelled cycles.
    """
    count = 0
    while (cycle := _find_cycle(net, value, out)) is not None:
        subtract(value, cycle, min(value[a] for a in cycle))
        count += 1
    return count


def extraction_bound(net: FlowNetwork) -> int:
    """Worst-case extractions per commodity: each zeroes a w, g, or p term."""
    return net.n_nodes + 2 * net.n_arcs


def extract_walks(net: FlowNetwork, d: Demand, index: int, w: dict[int, float],
                  g: dict[int, float], p: dict[str, float], ins: dict, outs: dict
                  ) -> tuple[list[WalkEntry], int]:
    """Pull processing-anchored walks out of one commodity's cancelled parts.

    w and g map each arc of the commodity's support to its part; `ins` and
    `outs` map a node to its support in-arcs and out-arcs, by arc index.
    `p` maps nodes to their processed volume, in node order, and each
    extraction starts at its first node with p > SNAP. Tracing back takes
    the first in-arc with w > SNAP of largest rho; tracing forward, the
    first out-arc with g > SNAP of smallest rho. w, g and p are consumed in
    place.

    Returns (entries, iterations). Iterations may exceed len(entries): a
    degenerate optimum can hold a zero-value loop that leaves the source
    unprocessed, gets processed, and returns; its forward trace ends back at
    the source and is cancelled without emitting a walk. Any other dead end
    means the input was not a feasible flow and raises DecompositionError.
    """
    def rho(a: int) -> float:
        return w[a] / (w[a] + g[a])

    arcs, limit = net.arcs, net.n_arcs
    entries: list[WalkEntry] = []
    iterations = 0
    bound = extraction_bound(net)
    while True:
        v = next((x for x, vol in p.items() if vol > SNAP), None)
        if v is None:
            break
        iterations += 1
        if iterations > bound:
            raise DecompositionError(f"extraction did not converge in {bound} steps")

        back: list[int] = []
        u = v
        while u != d.source:
            a = max((a for a in ins.get(u, ()) if w[a] > SNAP), key=rho, default=None)
            if a is None:
                raise DecompositionError(f"no unprocessed flow into {u!r} while tracing back")
            back.append(a)
            u = arcs[a].tail
            if len(back) > limit:
                raise DecompositionError("backward trace loops; cancellation incomplete")

        fwd: list[int] = []
        u = v
        phantom = False
        while u != d.sink:
            a = min((a for a in outs.get(u, ()) if g[a] > SNAP), key=rho, default=None)
            if a is None:
                if u == d.source:
                    phantom = True
                    break
                raise DecompositionError(f"no processed flow out of {u!r} while tracing forward")
            fwd.append(a)
            u = arcs[a].head
            if len(fwd) > limit:
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
                nodes.append(arcs[a].head)
            for a in fwd:
                nodes.append(arcs[a].head)
            entries.append(WalkEntry(index, tuple(nodes), delta, {v: delta}))
    return entries, iterations


def decompose(edge_sol: EdgeFlowSolution, net: FlowNetwork,
              demands: list[Demand]) -> WalkFlowSolution:
    """Per commodity: split into w and g over its support, cancel their
    cycles, extract walks."""
    arcs, order, n_arcs = net.arcs, net._index.__getitem__, net.n_arcs
    entries: list[WalkEntry] = []
    extractions: list[int] = []
    cancelled: list[int] = []
    for i, d in enumerate(demands):
        flow, unprocessed = edge_sol.flow[i], edge_sol.unprocessed[i]
        support = sorted(flow.keys() | unprocessed.keys())
        if support and (support[0] < 0 or support[-1] >= n_arcs):
            support = [a for a in support if 0 <= a < n_arcs]
        w = {a: unprocessed.get(a, 0.0) for a in support}
        g = {a: flow.get(a, 0.0) - w[a] for a in support}
        ins: dict[str, list[int]] = {}
        outs: dict[str, list[int]] = {}
        for a in support:
            arc = arcs[a]
            outs.setdefault(arc.tail, []).append(a)
            ins.setdefault(arc.head, []).append(a)
        nodes = sorted(ins.keys() | outs.keys(), key=order)
        outs = {v: outs[v] for v in nodes if v in outs}
        # processed volume is re-derived from the unprocessed balance so it
        # is exactly consistent with w
        p: dict[str, float] = {}
        for v in nodes:
            if v == d.source:
                continue
            into, out = ins.get(v, ()), outs.get(v, ())
            bal = sum(map(w.__getitem__, into)) - sum(map(w.__getitem__, out))
            if bal > SNAP:
                p[v] = bal
        cancelled.append(_cancel(net, w, outs) + _cancel(net, g, outs))
        got, iters = extract_walks(net, d, i, w, g, p, ins, outs)
        entries.extend(got)
        extractions.append(iters)
    meta = dict(edge_sol.meta)
    meta["extractions"] = extractions
    meta["cancelled_cycles"] = cancelled
    return WalkFlowSolution(entries, meta=meta)
