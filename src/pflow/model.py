"""Core data model: capacitated networks, demands, flow solutions, verifiers.

Flow here is always "processed flow": every unit routed from a demand's source
to its sink must also be processed, exactly once, at some node it visits
strictly between leaving the source and reaching the sink. `FlowNetwork.bars`
states, once, which arcs that leaves to a demand's unprocessed and processed
parts. Bandwidth lives on edges, processing capacity on nodes. Routes are
2-walks: they may visit a vertex (and hence an edge) at most twice, which is
what makes detours through off-path processing nodes expressible.
A network caches only what the package's solvers and verifiers read: arc
ends, the `barred` rules and the walk master's pricing graphs, which
`with_node_capacity` hands on to its copies.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-9
SNAP = 1e-12  # below this a residual is float dust, not flow


def feas_slack(capacity: float) -> float:
    """Allowed overshoot when comparing a load against a capacity."""
    if not math.isfinite(capacity):
        return ABS_TOL
    return max(ABS_TOL, REL_TOL * abs(capacity))


class StructuralError(ValueError):
    """Data references nodes, arcs, or demands that do not exist."""


class InfeasibleError(RuntimeError):
    """The model has no feasible solution."""


class ResourceLimitError(RuntimeError):
    """A solver gave up on an explicit size or iteration budget."""


@dataclass(frozen=True)
class Arc:
    tail: str
    head: str
    capacity: float
    group: int  # arcs sharing a group share one bandwidth budget


@dataclass(frozen=True)
class Demand:
    source: str
    sink: str
    amount: float = math.inf  # inf = uncapped


class FlowNetwork:
    """A capacitated network with per-node processing capacity.

    Undirected networks are materialized as antiparallel arc pairs; the two
    directions of one edge share a single bandwidth budget (their "group").
    Directed arcs each form a singleton group, so capacity accounting is
    uniformly per group. Node ids are opaque strings, but for `->`, which
    solution documents put between an arc's ends; dense indices follow
    first appearance in `nodes`.
    """

    def __init__(self, nodes, edges, node_capacity=None, directed=True):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise StructuralError("duplicate node id")
        for v in self.nodes:
            if isinstance(v, str) and "->" in v:
                raise StructuralError(f"node id {v!r} contains '->', which solution "
                                      f"documents use to key an arc")
        self.directed = bool(directed)
        self._index = {v: i for i, v in enumerate(self.nodes)}

        self.node_capacity = self._capacities(node_capacity)

        arcs: list[Arc] = []
        group_cap: list[float] = []
        seen: set[tuple[str, str]] = set()
        for u, v, cap in edges:
            if u not in self._index or v not in self._index:
                raise StructuralError(f"edge {u!r}->{v!r} references unknown node")
            pairs = [(u, v)] if self.directed else [(u, v), (v, u)]
            g = len(group_cap)
            for a, b in pairs:
                if (a, b) in seen:
                    raise StructuralError(f"duplicate arc {a!r}->{b!r}")
                seen.add((a, b))
                arcs.append(Arc(a, b, float(cap), g))
            group_cap.append(float(cap))
        self.arcs = tuple(arcs)
        self.group_capacity = tuple(group_cap)

        self.arc_index = {(a.tail, a.head): i for i, a in enumerate(self.arcs)}
        out: dict[str, list[int]] = {v: [] for v in self.nodes}
        inc: dict[str, list[int]] = {v: [] for v in self.nodes}
        for i, a in enumerate(self.arcs):
            out[a.tail].append(i)
            inc[a.head].append(i)
        self.out_arcs = {v: tuple(ix) for v, ix in out.items()}
        self.in_arcs = {v: tuple(ix) for v, ix in inc.items()}
        groups: list[list[int]] = [[] for _ in group_cap]
        for i, a in enumerate(self.arcs):
            groups[a.group].append(i)
        self.groups = tuple(tuple(g) for g in groups)
        # topology caches, which with_node_capacity hands on to its copy
        self._barred: dict = {}  # (source, sink) -> barred(source, sink)
        self._walk_graphs: dict = {}  # (paths, *(source, sink) pairs) -> pricing graph

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def edge_count(self) -> int:
        """Number of independent bandwidth budgets (undirected edges count once)."""
        return len(self.group_capacity)

    @property
    def edges(self) -> list[tuple[str, str, float]]:
        """(tail, head, capacity) per bandwidth group, in group order: the
        edge list this network was built from."""
        return [(self.arcs[arcs[0]].tail, self.arcs[arcs[0]].head, cap)
                for arcs, cap in zip(self.groups, self.group_capacity)]

    @functools.cached_property
    def closed(self) -> np.ndarray:
        """Per resource, the bandwidth groups then the nodes, whether its
        capacity is 0 (or less): the walk master's pricer prices those at
        inf. Built on first use; a `with_node_capacity` copy, whose node
        capacities differ, builds its own."""
        caps = self.group_capacity + tuple(self.node_capacity.values())
        return np.array(caps, dtype=float) <= 0

    @functools.cached_property
    def arc_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The tail and the head node index of every arc, by arc index."""
        tail = np.array([self._index[a.tail] for a in self.arcs], dtype=np.int64)
        head = np.array([self._index[a.head] for a in self.arcs], dtype=np.int64)
        return tail, head

    def bars(self, ends: np.ndarray) -> np.ndarray:
        """The processing rule of the demands from node index ends[b, 0] to
        ends[b, 1], in one broadcast over `arc_ends`: per demand and arc,
        whether its unprocessed part w (row 0), and whether its processed
        part g (row 1), may not use the arc, as a boolean array of shape
        (len(ends), 2, n_arcs). Each pair's rows also go into the cache
        that `barred` reads, so the verifiers after a solve find them there.

        Flow leaves the source unprocessed (g is barred from arcs out of
        the source) and reaches the sink processed (w is barred from arcs
        into the sink). Neither part enters the source or leaves the sink:
        a walk that returned to either could start at its last visit to the
        source and end at its first visit to the sink, with the same
        processing and less load.
        """
        tail, head = self.arc_ends
        source, sink = ends[:, :1], ends[:, 1:]
        into_source, out_of_sink = head == source, tail == sink
        bars = np.stack((into_source | (head == sink) | out_of_sink,
                         into_source | (tail == source) | out_of_sink), axis=1)
        nodes, cache = self.nodes, self._barred
        for (s, t), (w, g) in zip(ends.tolist(), bars.tolist()):
            if (nodes[s], nodes[t]) not in cache:
                cache[nodes[s], nodes[t]] = (tuple(w), tuple(g))
        return bars

    def barred(self, source: str, sink: str) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        """The processing rule of a `source`->`sink` demand, `bars`' two
        rows for it as tuples of bools by arc index: whether w, and whether
        g, may not use each arc. Cached per pair, filled by any `bars` call
        that covers the pair (the pricing graph's and the edge LP's build),
        and shared with the copies `with_node_capacity` makes.
        StructuralError on a node this network lacks."""
        rule = self._barred.get((source, sink))
        if rule is None:
            self.bars(np.array([[self.node_index(source), self.node_index(sink)]]))
            rule = self._barred[source, sink]
        return rule

    def legs(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """The leg rule: a leg from node a to node b may not enter a or
        leave b, and is empty (barred from every arc) when a = b. For node
        index arrays `start` and `end` of one shape, whether each leg may
        not use each arc, as a boolean array of that shape plus (n_arcs,).

        Processed at v, a `source`->`sink` demand's unprocessed part w is
        the leg source->v, so it never enters the source and ends where it
        is processed, and is empty when v is the source (flow departs
        processed). Its processed part g is the leg v->sink, empty when v is
        the sink (flow converts on arrival). With v at the sink, w alone is
        a plain source->sink flow.
        """
        tail, head = self.arc_ends
        start, end = start[..., None], end[..., None]
        return (start == end) | (head == start) | (tail == end)

    def _capacities(self, node_capacity) -> dict[str, float]:
        """Every node's processing capacity as a float, 0 where
        `node_capacity` leaves a node out; StructuralError on a node this
        network lacks."""
        caps = dict(node_capacity or {})
        for v in caps:
            if v not in self._index:
                raise StructuralError(f"node capacity for unknown node {v!r}")
        return {v: float(caps.get(v, 0.0)) for v in self.nodes}

    def node_index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise StructuralError(f"unknown node {v!r}") from None

    def capacity(self, v: str) -> float:
        return self.node_capacity[v]

    def with_node_capacity(self, caps: dict[str, float]) -> "FlowNetwork":
        """Copy of this network with node processing capacities replaced, as
        `FlowNetwork(nodes, edges, caps, directed)` would build it.

        The copy shares this network's topology, which no node capacity
        changes: its arcs, groups, arc index and in/out-arc maps, and the
        topology caches (`arc_ends`, the `barred` rules and the walk
        master's pricing graphs). So a capacity sweep builds them once
        per instance, not once per grid point. Only `closed` is the copy's
        own, built on its first use."""
        net = copy.copy(self)
        net.__dict__.pop("closed", None)
        net.node_capacity = self._capacities(caps)
        return net


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _degenerate(i: int, d: Demand) -> str:
    return f"demand {i}: degenerate demand {d.source}->{d.sink}"


def reject_degenerate_demands(demands: list[Demand]) -> None:
    """StructuralError, in `validate_instance`'s words, for the first demand
    from a node to itself: the solvers raise it for input that skipped the
    validator, as no walk serves such a demand."""
    for i, d in enumerate(demands):
        if d.source == d.sink:
            raise StructuralError(_degenerate(i, d))


def validate_instance(net: FlowNetwork, demands: list[Demand]) -> ValidationReport:
    """Check well-formedness; reports problems instead of raising.

    Edge and node capacities must be finite and non-negative. A demand amount
    of inf is legal and means uncapped.
    """
    problems = []
    for a in net.arcs:
        if not math.isfinite(a.capacity) or a.capacity < 0:
            problems.append(
                f"edge {a.tail}->{a.head}: negative or non-finite capacity {a.capacity}")
        if a.tail == a.head:
            problems.append(f"edge {a.tail}->{a.head}: self-loop")
    for v, c in net.node_capacity.items():
        if not math.isfinite(c) or c < 0:
            problems.append(f"node {v}: negative or non-finite processing capacity {c}")
    for i, d in enumerate(demands):
        if d.source not in net.node_capacity:
            problems.append(f"demand {i}: unknown source {d.source!r}")
        if d.sink not in net.node_capacity:
            problems.append(f"demand {i}: unknown sink {d.sink!r}")
        if d.source == d.sink:
            problems.append(_degenerate(i, d))
        if math.isnan(d.amount) or d.amount <= 0:
            problems.append(f"demand {i}: amount must be positive, got {d.amount}")
    return ValidationReport(not problems, problems)


@dataclass
class WalkEntry:
    """One routed walk: `flow` units over `nodes`, processed per `processing`."""

    demand: int
    nodes: tuple[str, ...]
    flow: float
    processing: dict[str, float]


@dataclass
class WalkFlowSolution:
    entries: list[WalkEntry]
    meta: dict = field(default_factory=dict)

    @property
    def objective(self) -> float:
        return sum(e.flow for e in self.entries)

    def edge_loads(self, net: FlowNetwork) -> dict[int, float]:
        """Per-arc load, counting walk traversal multiplicity."""
        loads: dict[int, float] = {}
        for e in self.entries:
            for u, v in zip(e.nodes, e.nodes[1:]):
                idx = net.arc_index.get((u, v))
                if idx is None:
                    raise StructuralError(f"walk uses missing arc {u!r}->{v!r}")
                loads[idx] = loads.get(idx, 0.0) + e.flow
        return loads

    def group_loads(self, net: FlowNetwork) -> dict[int, float]:
        loads: dict[int, float] = {}
        for idx, load in self.edge_loads(net).items():
            g = net.arcs[idx].group
            loads[g] = loads.get(g, 0.0) + load
        return loads

    def node_loads(self) -> dict[str, float]:
        loads: dict[str, float] = {}
        for e in self.entries:
            for v, p in e.processing.items():
                loads[v] = loads.get(v, 0.0) + p
        return loads

    def delivered(self, demand: int) -> float:
        return sum(e.flow for e in self.entries if e.demand == demand)


def _capacity_problems(net: FlowNetwork, sol) -> list[str]:
    """Bandwidth groups and processing nodes that `sol` (walk or edge
    solution) loads past their capacity.

    A congestion solution (min-max or min-weighted) softens every capacity
    into a load ratio, so its loads are checked against capacity x its
    reported `meta["congestion"]`, or x 1 if that is lower.
    """
    problems = []
    scale = 1.0
    kind = sol.meta.get("objective_kind")
    if kind in ("min-max-congestion", "min-weighted-congestion"):
        ratio = sol.meta.get("congestion")
        if isinstance(ratio, (int, float)) and math.isfinite(ratio):
            scale = max(1.0, ratio)
        else:
            problems.append(f"{kind} solution reports congestion {ratio!r}")
    limit = f" x congestion {scale}" if scale != 1.0 else ""
    for g, load in sol.group_loads(net).items():
        cap = net.group_capacity[g]
        if load > cap * scale + feas_slack(cap * scale):
            a = net.arcs[net.groups[g][0]]
            problems.append(f"edge {a.tail}-{a.head}: load {load} exceeds capacity "
                            f"{cap}{limit} by {load - cap * scale}")
    for v, load in sol.node_loads().items():
        cap = net.node_capacity[v]
        if load > cap * scale + feas_slack(cap * scale):
            problems.append(f"node {v}: processing {load} exceeds capacity "
                            f"{cap}{limit} by {load - cap * scale}")
    return problems


def verify_walk_solution(net: FlowNetwork, demands: list[Demand],
                         sol: WalkFlowSolution) -> ValidationReport:
    """Feasibility check for a walk solution against network and demands.

    A walk runs from its demand's source to its sink and uses no arc that
    `FlowNetwork.barred` bars to both parts of the flow: it never enters
    the source, never leaves the sink, and never takes an arc straight from
    the source to the sink. Processing sits at nodes of the walk other than
    the two endpoints. That is the edge LP's rule. Structural nonsense
    (unknown demand, node, or arc) raises StructuralError; quantitative
    violations come back in the report with their magnitude, and so does a
    non-finite flow or processing value.
    """
    problems = []
    for k, e in enumerate(sol.entries):
        if not 0 <= e.demand < len(demands):
            raise StructuralError(f"entry {k}: unknown demand {e.demand}")
        d = demands[e.demand]
        for v in e.nodes:
            net.node_index(v)
        wbar, gbar = net.barred(d.source, d.sink)
        for u, v in zip(e.nodes, e.nodes[1:]):
            a = net.arc_index.get((u, v))
            if a is None:
                raise StructuralError(f"entry {k}: missing arc {u!r}->{v!r}")
            if wbar[a] and gbar[a]:
                problems.append(f"entry {k}: arc {u}->{v} is barred to demand "
                                f"{e.demand}'s flow")
        if len(e.nodes) < 2 or e.nodes[0] != d.source or e.nodes[-1] != d.sink:
            problems.append(f"entry {k}: not a {d.source}->{d.sink} route")
        visits: dict[str, int] = {}
        for v in e.nodes:
            visits[v] = visits.get(v, 0) + 1
        for v, n in visits.items():
            if n > 2:
                problems.append(f"entry {k}: node {v} visited {n} times")
        if not math.isfinite(e.flow):
            problems.append(f"entry {k}: non-finite flow {e.flow}")
        elif e.flow < -ABS_TOL:
            problems.append(f"entry {k}: negative flow {e.flow}")
        total_p = 0.0
        for v, p in e.processing.items():
            if v not in visits:
                problems.append(f"entry {k}: processing at {v} which is not on the walk")
            if v == d.source or v == d.sink:
                problems.append(f"entry {k}: processing at demand endpoint {v}")
            if not math.isfinite(p):
                problems.append(f"entry {k}: non-finite processing {p} at {v}")
            elif p < -ABS_TOL:
                problems.append(f"entry {k}: negative processing {p} at {v}")
            total_p += p
        if abs(total_p - e.flow) > max(ABS_TOL, REL_TOL * abs(e.flow)):
            problems.append(
                f"entry {k}: processing sums to {total_p}, flow is {e.flow}")

    problems += _capacity_problems(net, sol)
    for i, d in enumerate(demands):
        got = sol.delivered(i)
        if got > d.amount + feas_slack(d.amount):
            problems.append(
                f"demand {i}: delivered {got} exceeds requested {d.amount}")
    return ValidationReport(not problems, problems)


@dataclass
class EdgeFlowSolution:
    """Per-demand arc flows: total, still-unprocessed part, and node processing.

    Maps are sparse (arc index -> value, node id -> value); missing means zero.
    `objective` is the total delivered processed flow, i.e. the sum over demands
    of net flow out of the source.
    """

    flow: list[dict[int, float]]
    unprocessed: list[dict[int, float]]
    processing: list[dict[str, float]]
    objective: float
    meta: dict = field(default_factory=dict)

    def delivered(self, net: FlowNetwork, demands: list[Demand], i: int) -> float:
        d = demands[i]
        f = self.flow[i]
        out = sum(f.get(a, 0.0) for a in net.out_arcs[d.source])
        inc = sum(f.get(a, 0.0) for a in net.in_arcs[d.source])
        return out - inc

    def group_loads(self, net: FlowNetwork) -> dict[int, float]:
        loads: dict[int, float] = {}
        for f in self.flow:
            for idx, val in f.items():
                g = net.arcs[idx].group
                loads[g] = loads.get(g, 0.0) + val
        return loads

    def node_loads(self) -> dict[str, float]:
        loads: dict[str, float] = {}
        for p in self.processing:
            for v, val in p.items():
                loads[v] = loads.get(v, 0.0) + val
        return loads


def verify_edge_solution(net: FlowNetwork, demands: list[Demand],
                         sol: EdgeFlowSolution) -> ValidationReport:
    """Feasibility check for an arc-level solution.

    Verifies, per demand: every flow, unprocessed and processing value
    finite, flow conservation away from the endpoints, the
    processing balance (processed volume at v equals unprocessed inflow minus
    unprocessed outflow), unprocessed <= total on every arc, no processing at
    the source, and no unprocessed or processed flow on an arc
    `FlowNetwork.barred` bars to that part, as the edge LP builds it. Then
    joint bandwidth and processing budgets, softened for a congestion
    solution by its reported congestion.
    """
    problems = []
    if not (len(sol.flow) == len(sol.unprocessed) == len(sol.processing) == len(demands)):
        raise StructuralError("solution demand count does not match demands")

    for i, d in enumerate(demands):
        f, w, p = sol.flow[i], sol.unprocessed[i], sol.processing[i]
        for part, m in (("flow", f), ("unprocessed flow", w)):
            for idx, val in m.items():
                if not 0 <= idx < net.n_arcs:
                    raise StructuralError(f"demand {i}: unknown arc index {idx}")
                if not math.isfinite(val):
                    a = net.arcs[idx]
                    problems.append(f"demand {i} arc {a.tail}->{a.head}: non-finite "
                                    f"{part} {val}")
        for v, val in p.items():
            net.node_index(v)
            if not math.isfinite(val):
                problems.append(f"demand {i} node {v}: non-finite processing {val}")
        scale = max([1.0] + [abs(x) for x in f.values()])
        tol = max(ABS_TOL, REL_TOL * scale)
        wbar, gbar = net.barred(d.source, d.sink)
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

    problems += _capacity_problems(net, sol)
    return ValidationReport(not problems, problems)


@dataclass
class PurchaseInstance:
    """A network and its demands, plus the processing capacity for sale.

    Every instance file parses into this class (also named ParsedInstance);
    the routing solvers read only `net` and `demands`. `potential` maps
    node -> capacity available if purchased; absent or zero means the node
    is not for sale. `cost` maps node -> purchase price (defaults to 0 for
    nodes with potential, which makes them free). `budget` is only
    meaningful for the budgeted variant.
    """

    net: FlowNetwork
    demands: list[Demand]
    potential: dict[str, float] = field(default_factory=dict)
    cost: dict[str, float] = field(default_factory=dict)
    budget: float | None = None

    def candidates(self) -> list[str]:
        """Purchasable nodes, in network node order."""
        return [v for v in self.net.nodes if self.potential.get(v, 0.0) > 0.0]

    def price(self, v: str) -> float:
        return float(self.cost.get(v, 0.0))

    def purchase(self) -> PurchaseInstance:
        """This instance, once it is known to sell some node's capacity."""
        if not self.potential:
            raise StructuralError("instance declares no purchasable nodes")
        return self


ParsedInstance = PurchaseInstance


@dataclass
class PurchaseSolution:
    purchased: set[str]
    cost: float
    flows: EdgeFlowSolution
    served: dict[int, float]  # demand -> delivered fraction of its amount
    meta: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.flows.objective
