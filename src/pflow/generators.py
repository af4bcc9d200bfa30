"""Instance generators: seeded random networks and hardness-gadget families.

The gadget families encode classic covering problems as purchase instances,
so known combinatorial optima double as oracles for the purchase solvers:
a set-cover system becomes a min-purchase instance whose optimal cost is the
minimum cover size, a max-coverage system becomes a budgeted instance, a
vertex-cover graph maps onto itself with length-one flows, and a max-bisection
graph becomes a budgeted instance whose value counts cut edges.
"""

from __future__ import annotations

import math
import random

from .model import Demand, FlowNetwork, ParsedInstance, StructuralError


def gen_random_instance(n_nodes: int, density: float, edge_cap=(1, 5),
                        node_cap=(0, 5), n_demands: int = 2, seed: int = 0,
                        directed: bool = True, max_arcs: int | None = None,
                        amounts=None) -> ParsedInstance:
    """Seeded random network with reachable demand pairs.

    Every ordered (or unordered, when undirected) node pair becomes an edge
    with probability `density`; capacities are drawn uniformly from the
    inclusive integer ranges. Demand endpoints are sampled distinct and a
    direct edge is added wherever the sampled graph leaves a pair
    disconnected, so all demands are routable by construction. `max_arcs`
    truncates the sampled edge set (connectivity patches are exempt).
    `amounts` is an inclusive integer range for demand sizes, or None for
    uncapped demands.

    Every instance it returns passes `validate_instance`: a capacity range
    with a negative bound, an amount range starting below 1, or a range
    whose low end exceeds its high end raises ValueError naming the range.
    """
    if n_nodes < 2 or not 0.0 <= density <= 1.0 or n_demands < 0:
        raise ValueError("need n_nodes >= 2, density in [0,1], n_demands >= 0")
    for name, span, least in (("edge capacity", edge_cap, 0), ("node capacity", node_cap, 0),
                              ("amount", amounts, 1)):
        if span is not None and not least <= span[0] <= span[1]:
            raise ValueError(f"{name} range {span[0]}:{span[1]} must satisfy "
                             f"{least} <= lo <= hi")
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n_nodes)]

    pairs = []
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i == j or (not directed and i > j):
                continue
            pairs.append((u, v))
    edges = [(u, v, float(rng.randint(*edge_cap)))
             for u, v in pairs if rng.random() < density]
    if max_arcs is not None and len(edges) > max_arcs:
        edges = rng.sample(edges, max_arcs)
    caps = {v: float(rng.randint(*node_cap)) for v in nodes}

    demands = []
    present = {(u, v) for u, v, _ in edges}
    for _ in range(n_demands):
        s, t = rng.sample(nodes, 2)
        amount = math.inf if amounts is None else float(rng.randint(*amounts))
        demands.append(Demand(s, t, amount))
        if not _reachable(nodes, present, directed, s, t) and (s, t) not in present:
            edges.append((s, t, float(rng.randint(*edge_cap))))
            present.add((s, t))

    net = FlowNetwork(nodes, edges, caps, directed=directed)
    return ParsedInstance(net, demands)


def _reachable(nodes, present, directed, s, t) -> bool:
    adj = {v: [] for v in nodes}
    for u, v in present:
        adj[u].append(v)
        if not directed:
            adj[v].append(u)
    stack, seen = [s], {s}
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def gen_random_purchase(n_nodes: int, density: float, edge_cap=(2, 8),
                        potential_cap=(1, 6), cost_range=(1, 4),
                        n_candidates: int = 3, n_demands: int = 2,
                        amounts=(1, 4), budget: float | None = None,
                        seed: int = 0, directed: bool = True,
                        single_source: bool = False) -> ParsedInstance:
    """Random purchase instance on `gen_random_instance`'s network, with
    no node capacity until bought. Candidates are drawn from the nodes that
    are no demand's source or sink, topped up from the rest when too few
    are."""
    base = gen_random_instance(n_nodes, density, edge_cap, (0, 0), n_demands,
                               seed, directed, amounts=amounts)
    rng = random.Random(seed + 0x9E3779B9)
    demands = base.demands
    if single_source and demands:
        src = demands[0].source
        demands = [Demand(src, d.sink, d.amount) for d in demands
                   if d.sink != src]
    endpoints = {d.source for d in demands} | {d.sink for d in demands}
    inner = [v for v in base.net.nodes if v not in endpoints]
    chosen = rng.sample(inner, min(n_candidates, len(inner)))
    if len(chosen) < n_candidates:
        rest = [v for v in base.net.nodes if v not in chosen]
        chosen += rng.sample(rest, min(n_candidates - len(chosen), len(rest)))
    potential = {v: float(rng.randint(*potential_cap)) for v in chosen}
    cost = {v: float(rng.randint(*cost_range)) for v in chosen}
    return ParsedInstance(base.net, demands, potential, cost, budget)


def _cover_gadget(sets: list, universe: list, budget: float | None):
    """Shared source->set->element->sink gadget for the covering problems.

    Set vertices get purchasable processing; one unit must reach the sink
    per element, and each element vertex admits at most one unit, so serving
    an element means buying some set containing it.
    """
    uni = list(dict.fromkeys(universe))
    if not uni or not sets:
        raise StructuralError("covering gadget needs nonempty sets and universe")
    norm = [list(dict.fromkeys(S)) for S in sets]
    for S in norm:
        for u in S:
            if u not in uni:
                raise StructuralError(f"set element {u!r} outside the universe")
    n = len(norm) + len(uni) + 2  # capacity stand-in for "unbounded"
    nodes = ["s"] + [f"set{j}" for j in range(len(norm))] \
        + [f"elt_{u}" for u in uni] + ["t"]
    edges = []
    for j in range(len(norm)):
        edges.append(("s", f"set{j}", float(n)))
    for j, S in enumerate(norm):
        for u in S:
            edges.append((f"set{j}", f"elt_{u}", 1.0))
    for u in uni:
        edges.append((f"elt_{u}", "t", 1.0))
    caps = {v: 0.0 for v in nodes}
    net = FlowNetwork(nodes, edges, caps, directed=True)
    demands = [Demand("s", "t", float(len(uni)))]
    potential = {f"set{j}": float(n) for j in range(len(norm))}
    cost = {f"set{j}": 1.0 for j in range(len(norm))}
    return ParsedInstance(net, demands, potential, cost, budget)


def gen_reduction_instance(kind: str, spec: dict) -> ParsedInstance:
    """Materialize one of the hardness gadgets.

    kinds and their spec dicts:
      setcover    {"sets": [[...], ...], "universe": [...]}
      maxkcover   {"sets": ..., "universe": ..., "k": int}
      vertexcover {"edges": [(u, v), ...]}
      bisection   {"edges": [(u, v), ...]}  (graph must be 3-regular)
    """
    if kind == "setcover":
        return _cover_gadget(spec["sets"], spec["universe"], None)
    if kind == "maxkcover":
        k = spec["k"]
        if not isinstance(k, int) or k < 1:
            raise StructuralError(f"maxkcover needs integer k >= 1, got {k!r}")
        return _cover_gadget(spec["sets"], spec["universe"], float(k))
    if kind == "vertexcover":
        return _vertex_cover_gadget(spec["edges"])
    if kind == "bisection":
        return _bisection_gadget(spec["edges"])
    raise StructuralError(f"unknown reduction kind {kind!r}")


def _vertex_cover_gadget(edge_list) -> ParsedInstance:
    edges_in = [(str(u), str(v)) for u, v in edge_list]
    nodes = sorted({w for e in edges_in for w in e})
    if not nodes:
        raise StructuralError("vertex cover gadget needs at least one edge")
    seen = set()
    for u, v in edges_in:
        if u == v:
            raise StructuralError(f"self-loop {u}-{v} not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise StructuralError(f"duplicate edge {u}-{v}")
        seen.add(key)
    n = len(nodes)
    # the graph maps onto itself: capacity 2 per edge, mutual unit demands,
    # so every flow path has length one and covers exactly one edge endpoint
    edges = [(u, v, 2.0) for u, v in edges_in]
    caps = {v: 0.0 for v in nodes}
    net = FlowNetwork(nodes, edges, caps, directed=False)
    demands = []
    for u, v in edges_in:
        demands.append(Demand(u, v, 1.0))
        demands.append(Demand(v, u, 1.0))
    potential = {v: float(n) for v in nodes}
    cost = {v: 1.0 for v in nodes}
    return ParsedInstance(net, demands, potential, cost)


def _bisection_gadget(edge_list) -> ParsedInstance:
    edges_in = [(str(u), str(v)) for u, v in edge_list]
    verts = sorted({w for e in edges_in for w in e})
    deg = {v: 0 for v in verts}
    for u, v in edges_in:
        if u == v:
            raise StructuralError(f"self-loop {u}-{v} not allowed")
        deg[u] += 1
        deg[v] += 1
    bad = [v for v, d in deg.items() if d != 3]
    if bad:
        raise StructuralError(f"bisection input must be 3-regular; degree "
                              f"violated at {', '.join(bad)}")
    if len(verts) % 2:
        raise StructuralError("bisection input needs an even vertex count")
    nodes = [f"u_{v}" for v in verts] + [f"w_{v}" for v in verts]
    edges = [(f"u_{v}", f"w_{v}", 3.0) for v in verts]
    edges += [(f"u_{a}", f"u_{b}", 1.0) for a, b in edges_in]
    caps = {v: 0.0 for v in nodes}
    net = FlowNetwork(nodes, edges, caps, directed=False)
    demands = [Demand(f"u_{a}", f"w_{b}", 3.0) for b in verts for a in verts]
    potential = {f"u_{v}": 3.0 * len(verts) for v in verts}
    cost = {f"u_{v}": 1.0 for v in verts}
    return ParsedInstance(net, demands, potential, cost, len(verts) / 2.0)
