"""Multiplicative-weights approximation for processed-flow routing.

Resources are the bandwidth groups and then the nodes, in the walk master's
row order. Resource r of capacity cap_r has weight w_r = delta*(1+eps)^gain_r,
gain_r being the load placed on it so far over its capacity, and price
y_r = w_r/cap_r. A round is one pricing call on the pricing graph the solve
holds (`lp._WalkGraph.price`), which prices every demand's cheapest processed
2-walk at once; alpha is the cheapest cost over the demands still active.
Every active demand whose walk costs at most (1+eps)*alpha routes it, in
index order, at its bottleneck f = min_r cap_r/m_r over the resources it
uses m_r times (`lp.charge_walks`, which the walk master's seed shares); a
capped demand routes at most what is left of its pre-scaling budget
amount*sigma, and drops out once that is used up.
The batch is scaled by lambda = min(1, 1/max_r u_r), u_r = sum of m_r*f/cap_r
over the batch, so that no round loads a resource past its capacity, and
gain_r grows by lambda*u_r. This is the phase scheme of L. Fleischer,
"Approximating fractional multicommodity flow independent of the number of
commodities", SIAM J. Discrete Math. 13(4), 2000, in which one pass routes
every commodity whose walk is within 1+eps of the cheapest; as in G.
Karakostas, "Faster approximation schemes for fractional multicommodity flow
problems", ACM Trans. Algorithms 4(1), 2008, shortest-path trees are shared
rather than grown once per commodity: here one search over the pricing graph
serves every demand.

The stop is a certificate. With D the total weight of the resources of
positive capacity, the prices y/alpha make every walk cost at least 1, so
D/alpha bounds the optimum from above by weak duality, the bound of N. Garg
and J. Koenemann, "Faster and simpler algorithms for multicommodity flow and
other fractional packing problems", SIAM J. Comput. 37(2), 2007. When no
demand is capped, the least such bound over the rounds is
meta["upper_bound"], and the run stops ("certificate") after the first round
whose value, computed as it is returned, is at least (1-eps)*upper_bound.
That value is then at least (1-eps)*OPT: the stop proves the ratio by
itself, whatever the rounds did. It also stops ("weight") once a weight
passes 1, Garg and Koenemann's stop, and ("demands") once no demand is left
with a walk. A capped demand has a dual term of its own, which D/alpha
leaves out, so with one capped demand no bound is reported and the run ends
only by weight or demands, with no ratio certified.

Dividing all placed flow by max(1, peak utilization) makes the solution
feasible; a capped demand still above its amount then shrinks alone.

A round's bookkeeping (gains, activity, costs, charges) is plain Python
floats. Only the weights' power and their sum stay numpy's, whose results
can differ from a Python loop's in the last bit, and so does the price
vector the pricing graph reads. numpy picks its `power` routine by CPU: on
an AVX-512 host its SIMD routine differs from libm's `pow` in the last bit
on about 5% of inputs. So one instance's MWU document may differ from one
CPU to another: in the last bit of its numbers, and where that breaks a
tie the other way, in its walks and round count.

The tests check each round's pricing against a walk oracle in plain Python
that shares no code with the pricing graph (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import WalkFold, _capacities, _walk_graph, charge_walks
from .model import (Demand, FlowNetwork, ResourceLimitError, WalkFlowSolution,
                    reject_degenerate_demands)


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


def _scales(demands: list[Demand], placed: list[float], peak: float) -> list[float]:
    """What each demand's placed flow is divided by: max(1, peak) for all,
    and more for a capped demand that would still overshoot its amount,
    which shrinks alone and so cannot disturb any shared load."""
    scale = max(peak, 1.0) * (1.0 + 1e-12)
    return [(p / d.amount) * (1.0 + 1e-12)
            if p > 0 and math.isfinite(d.amount) and p / scale > d.amount else scale
            for d, p in zip(demands, placed)]


def mwu_solve(net: FlowNetwork, demands: list[Demand],
              config: MWUConfig = MWUConfig()) -> WalkFlowSolution:
    """Run the rounds to a stop, then scale to feasibility (module docstring).

    Every path returns the same meta keys: `iterations` counts rounds, and
    `stopped_by` is "certificate", "weight", or "demands" when no demand was
    left to route (caps met, no valid walk, or nothing to route at all);
    `upper_bound` is present exactly when no demand is capped. A demand from
    a node to itself raises StructuralError, and a walk with no finite
    bottleneck for an uncapped demand ResourceLimitError, as the walk master
    does; so does a run past the iteration guard.
    """
    reject_degenerate_demands(demands)
    eps = config.epsilon
    n_edges = net.edge_count
    delta = default_delta(eps, n_edges)
    bound = iteration_bound(net.n_nodes, n_edges, eps, delta)
    guard = max(1000, int(4 * bound) + 1)  # hard guard: 4x the analytic bound
    sigma = scaling_factor(eps, delta)

    meta = {
        "algorithm": "mwu", "epsilon": eps, "delta": delta,
        "iterations": 0, "iteration_bound": bound, "scale": 1.0,
        "sigma": sigma, "stopped_by": "demands",
    }
    # the bound prices edges and nodes only; capped demands would need duals
    uncapped = all(not math.isfinite(d.amount) for d in demands)
    if not demands or all(net.capacity(v) <= 0 for v in net.nodes):
        if uncapped:
            meta["upper_bound"] = 0.0
        return WalkFlowSolution([], meta=meta)

    k = len(demands)
    capacity = _capacities(net)
    # numpy only where a round's arithmetic must stay numpy's: the weights'
    # power and sum, and the price vector the pricing graph reads
    inv = np.array([1.0 / c if c > 0 else 0.0 for c in capacity])
    positive = np.flatnonzero(np.array(capacity) > 0)
    gain = [0.0] * len(capacity)  # load placed so far over capacity
    gain_limit = -math.log(delta) / math.log1p(eps)  # weight > 1
    graph = _walk_graph(net, demands)
    closed = graph.closed_rows(capacity)
    price = np.zeros(k + len(capacity))
    budget = [d.amount * sigma for d in demands]  # pre-scaling caps
    placed = [0.0] * k
    active = [True] * k
    fold = WalkFold(net, demands)  # the walks placed so far, before scaling
    upper, total, rounds = math.inf, 0.0, 0
    while True:
        if rounds >= guard:
            raise ResourceLimitError(
                f"mwu exceeded the iteration guard of {guard}; "
                f"epsilon={eps} may be pathologically small")
        weight = delta * np.power(1.0 + eps, gain)
        np.multiply(weight, inv, out=price[k:])
        cost, walk = graph.price(price, closed)
        cost = cost.tolist()
        alpha = min([c for c, on in zip(cost, active) if on], default=math.inf)
        if uncapped and alpha > 0.0:
            upper = min(upper, float(weight[positive].sum()) / alpha)
        if alpha == math.inf:
            break
        rounds += 1
        bar = (1.0 + eps) * alpha
        chosen = [i for i, c in enumerate(cost) if c <= bar and active[i]]
        charged, use = charge_walks(graph, walk, chosen, capacity,
                                    [b - p for b, p in zip(budget, placed)])
        most = max(use)
        lam = 1.0 / most if most > 1.0 else 1.0
        routed = []
        for col, f in charged:
            i = col[0]
            if f == math.inf:
                raise ResourceLimitError(
                    f"mwu ended unbounded: demand {i}'s walk has no finite capacity")
            flow = lam * f
            placed[i] += flow
            if placed[i] >= budget[i] - 1e-12:
                active[i] = False
            if flow > 0.0:
                total += flow
                routed.append((col, flow))
        fold.add(routed)
        gain = [g + lam * u for g, u in zip(gain, use)]
        peak = max(gain)
        target = (1.0 - eps) * upper
        # the cheap test first; the value as returned, Σ flow / scale, decides
        if uncapped and total >= target * max(peak, 1.0) * (1.0 - 1e-9):
            scale = _scales(demands, placed, peak)
            if sum(walk[0] / scale[i] for (i, _), walk in fold.walks.items()) >= target:
                meta["stopped_by"] = "certificate"
                break
        if peak > gain_limit:
            meta["stopped_by"] = "weight"
            break

    peak = max(gain)
    meta.update(iterations=rounds, scale=max(peak, 1.0) * (1.0 + 1e-12))
    if uncapped:
        meta["upper_bound"] = upper
    return WalkFlowSolution(fold.entries(_scales(demands, placed, peak)), meta=meta)
