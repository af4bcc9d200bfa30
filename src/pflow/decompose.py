"""Turn an arc-level processed-flow solution into explicit 2-walks.

Split each commodity's flow into its unprocessed part (f1 = w) and processed
part (f2 = f - w, the edge LP's g). After cancelling cycles that live
entirely in one part, every remaining unit can be pulled out as a walk: from
a node with processed volume, trace unprocessed flow backwards to the source
and processed flow forwards to the sink, each leg guided by the unprocessed
fraction rho = w/f. Cancellation leaves both part-subgraphs acyclic, so the
two legs are simple paths and their concatenation visits no vertex more than
twice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import Demand, EdgeFlowSolution, FlowNetwork, WalkEntry, WalkFlowSolution

SNAP = 1e-12  # below this a residual is float dust, not flow


class DecompositionError(RuntimeError):
    """Input flows were not internally consistent (infeasible or corrupted)."""


@dataclass
class CommodityView:
    """Mutable per-commodity slice of an arc solution during decomposition."""

    net: FlowNetwork
    demand: Demand
    index: int
    f: list[float]
    w: list[float]
    p: dict[str, float]

    @classmethod
    def from_solution(cls, net: FlowNetwork, demands: list[Demand],
                      sol: EdgeFlowSolution, index: int) -> "CommodityView":
        d = demands[index]
        f = [0.0] * net.n_arcs
        w = [0.0] * net.n_arcs
        for a, val in sol.flow[index].items():
            f[a] = max(0.0, val)
        for a, val in sol.unprocessed[index].items():
            w[a] = min(max(0.0, val), f[a])
        # processed volume is re-derived from the unprocessed balance so the
        # view is exactly self-consistent even when the input has float fuzz
        p: dict[str, float] = {}
        for v in net.nodes:
            if v == d.source:
                continue
            bal = sum(w[a] for a in net.in_arcs[v]) - sum(w[a] for a in net.out_arcs[v])
            if bal > SNAP:
                p[v] = bal
        return cls(net, d, index, f, w, p)

    def f2(self, a: int) -> float:
        return self.f[a] - self.w[a]

    def rho(self, a: int) -> float:
        return self.w[a] / self.f[a] if self.f[a] > SNAP else 0.0

    def snap(self) -> None:
        for a in range(len(self.f)):
            if self.f[a] < SNAP:
                self.f[a] = 0.0
            if self.w[a] < SNAP:
                self.w[a] = 0.0
            self.w[a] = min(self.w[a], self.f[a])
        for v in list(self.p):
            if self.p[v] < SNAP:
                del self.p[v]


def _find_cycle(net: FlowNetwork, value) -> list[int] | None:
    """Some directed cycle among arcs with value(a) > SNAP, as arc indices."""
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
                if value(a) <= SNAP:
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


def cancel_loops(view: CommodityView) -> int:
    """Remove cycles lying entirely in the unprocessed or processed part.

    Unprocessed cycles shrink f and w together, processed ones just f; the two
    parts do not interact, so one pass per part suffices. Returns the number
    of cancelled cycles.
    """
    cancelled = 0
    while True:
        cycle = _find_cycle(view.net, lambda a: view.w[a])
        if cycle is None:
            break
        delta = min(view.w[a] for a in cycle)
        for a in cycle:
            view.f[a] -= delta
            view.w[a] -= delta
        view.snap()
        cancelled += 1
    while True:
        cycle = _find_cycle(view.net, view.f2)
        if cycle is None:
            break
        delta = min(view.f2(a) for a in cycle)
        for a in cycle:
            view.f[a] -= delta
        view.snap()
        cancelled += 1
    return cancelled


class _ScanPicker:
    """Pick traversal arcs by rescanning adjacency lists every time."""

    def __init__(self, view: CommodityView):
        self.view = view

    def best_in(self, v: str) -> int | None:
        best, best_rho = None, -1.0
        for a in self.view.net.in_arcs[v]:
            if self.view.w[a] > SNAP:
                r = self.view.rho(a)
                if r > best_rho:
                    best, best_rho = a, r
        return best

    def best_out(self, v: str) -> int | None:
        best, best_rho = None, 2.0
        for a in self.view.net.out_arcs[v]:
            if self.view.f2(a) > SNAP:
                r = self.view.rho(a)
                if r < best_rho:
                    best, best_rho = a, r
        return best

    def touch(self, arcs) -> None:
        pass


class _HeapPicker:
    """Per-node priority queues over incident arcs, refreshed lazily.

    rho drifts as flow is subtracted, so queue entries carry a stamp and are
    discarded when stale; only arcs touched by an extraction get restamped.
    Ties break on the lower arc index, matching the scanning picker exactly.
    """

    def __init__(self, view: CommodityView):
        self.view = view
        self.stamp = [0] * view.net.n_arcs
        self.inq: dict[str, list] = {v: [] for v in view.net.nodes}
        self.outq: dict[str, list] = {v: [] for v in view.net.nodes}
        for a in range(view.net.n_arcs):
            self._push(a)

    def _push(self, a: int) -> None:
        arc = self.view.net.arcs[a]
        if self.view.w[a] > SNAP:
            heapq.heappush(self.inq[arc.head], (-self.view.rho(a), a, self.stamp[a]))
        if self.view.f2(a) > SNAP:
            heapq.heappush(self.outq[arc.tail], (self.view.rho(a), a, self.stamp[a]))

    def touch(self, arcs) -> None:
        for a in set(arcs):
            self.stamp[a] += 1
            self._push(a)

    def best_in(self, v: str) -> int | None:
        q = self.inq[v]
        while q:
            _, a, st = q[0]
            if st != self.stamp[a] or self.view.w[a] <= SNAP:
                heapq.heappop(q)
                continue
            return a
        return None

    def best_out(self, v: str) -> int | None:
        q = self.outq[v]
        while q:
            _, a, st = q[0]
            if st != self.stamp[a] or self.view.f2(a) <= SNAP:
                heapq.heappop(q)
                continue
            return a
        return None


def extraction_bound(net: FlowNetwork) -> int:
    """Worst-case extractions per commodity: each zeroes an f1, f2, or p term."""
    return net.n_nodes + 2 * net.n_arcs


def extract_walks(view: CommodityView, selection: str = "heap") -> tuple[list[WalkEntry], int]:
    """Pull processing-anchored walks out of a cancelled view.

    Returns (entries, iterations). Iterations may exceed len(entries): a
    degenerate optimum can hold a zero-value loop that leaves the source
    unprocessed, gets processed, and returns; its forward trace ends back at
    the source and is cancelled without emitting a walk. Any other dead end
    means the input was not a feasible flow and raises DecompositionError.
    """
    if selection == "heap":
        picker = _HeapPicker(view)
    elif selection == "scan":
        picker = _ScanPicker(view)
    else:
        raise ValueError(f"unknown selection {selection!r}")

    net, d = view.net, view.demand
    entries: list[WalkEntry] = []
    iterations = 0
    bound = extraction_bound(net)
    while True:
        v = next((x for x in net.nodes if view.p.get(x, 0.0) > SNAP), None)
        if v is None:
            break
        iterations += 1
        if iterations > bound:
            raise DecompositionError(f"extraction did not converge in {bound} steps")

        back: list[int] = []
        u = v
        while u != d.source:
            a = picker.best_in(u)
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
            a = picker.best_out(u)
            if a is None:
                if u == d.source:
                    phantom = True
                    break
                raise DecompositionError(f"no processed flow out of {u!r} while tracing forward")
            fwd.append(a)
            u = net.arcs[a].head
            if len(fwd) > net.n_arcs:
                raise DecompositionError("forward trace loops; cancellation incomplete")

        delta = view.p[v]
        for a in back:
            delta = min(delta, view.w[a])
        for a in fwd:
            delta = min(delta, view.f2(a))
        for a in back:
            view.f[a] -= delta
            view.w[a] -= delta
        for a in fwd:
            view.f[a] -= delta
        view.p[v] -= delta
        view.snap()
        picker.touch(back + fwd)

        if not phantom:
            nodes = [d.source]
            for a in reversed(back):
                nodes.append(net.arcs[a].head)
            for a in fwd:
                nodes.append(net.arcs[a].head)
            entries.append(WalkEntry(view.index, tuple(nodes), delta, {v: delta}))
    return entries, iterations


def decompose(edge_sol: EdgeFlowSolution, net: FlowNetwork, demands: list[Demand],
              selection: str = "heap") -> WalkFlowSolution:
    """Full pipeline: per commodity, cancel loops then extract walks."""
    entries: list[WalkEntry] = []
    extractions: list[int] = []
    cancelled: list[int] = []
    for i in range(len(demands)):
        view = CommodityView.from_solution(net, demands, edge_sol, i)
        cancelled.append(cancel_loops(view))
        got, iters = extract_walks(view, selection)
        entries.extend(got)
        extractions.append(iters)
    meta = dict(edge_sol.meta)
    meta["extractions"] = extractions
    meta["cancelled_cycles"] = cancelled
    return WalkFlowSolution(entries, meta=meta)
