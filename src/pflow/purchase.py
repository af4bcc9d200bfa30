"""Node purchase optimization: decide which processing nodes to buy.

Two variants over a network whose node capacity C(v) is only *potential*
until the node is purchased at cost q(v): minimize purchase cost subject to
serving every demand in full, or maximize served flow under a budget. Both
are solved as LP relaxations over fractional purchase levels x(v) in [0,1]
and rounded randomly; an exact greedy with a max-flow oracle covers the
undirected single-source budgeted case. That oracle is combinatorial
(Edmonds-Karp augmenting paths in pure Python), so the greedy solves no
purchase LP: its final routing is the walk master over plain paths.

Each unit is routed as a two-leg itinerary through its chosen processing
vertex v, an unprocessed leg source->v and a processed leg v->sink: per
(demand, candidate) pair, the edge LP's split flow (w then g, with p only
at v) under the pair's leg rule, `FlowNetwork.legs`, all pairs built in one
batch by `lp.commodities`. Unlike the fixed-capacity world, processing at
the source or sink itself is legitimate here (the itinerary then has a
single leg). The greedy's final routing is `lp.solve_walk_master` with
`paths`: simple paths whose one leg runs from each demand's source to its
sink under the same rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .lp import LPModel, LPResult, commodities, solve_lp, solve_walk_master
from .model import (SNAP, EdgeFlowSolution, FlowNetwork, InfeasibleError, PurchaseInstance,
                    PurchaseSolution, StructuralError, ValidationReport,
                    feas_slack, validate_instance)


def validate_purchase_instance(inst: PurchaseInstance,
                               mode: str = "min") -> ValidationReport:
    """`validate_instance` plus the purchase fields: potentials must be
    finite and non-negative, costs too, demand amounts finite, and budgeted
    mode needs a finite non-negative budget."""
    problems = list(validate_instance(inst.net, inst.demands).problems)
    for v, c in inst.potential.items():
        if v not in inst.net.node_capacity:
            problems.append(f"potential at unknown node {v!r}")
        elif not math.isfinite(c) or c < 0:
            problems.append(f"node {v}: negative or non-finite potential {c}")
    for v, q in inst.cost.items():
        if v not in inst.net.node_capacity:
            problems.append(f"cost at unknown node {v!r}")
        elif math.isnan(q) or q < 0 or q == math.inf:
            problems.append(f"node {v}: negative or invalid cost {q}")
    for i, d in enumerate(inst.demands):
        if not math.isfinite(d.amount):
            problems.append(f"demand {i}: purchase variants need a finite amount")
    if mode == "budgeted":
        if inst.budget is None:
            problems.append("budgeted mode needs a budget")
        elif not math.isfinite(inst.budget) or inst.budget < 0:
            problems.append(f"negative or non-finite budget {inst.budget}")
    elif mode != "min":
        problems.append(f"unknown purchase mode {mode!r}")
    return ValidationReport(not problems, problems)


@dataclass
class PurchaseLPSolution:
    """Fractional relaxation output.

    `pre_leg[(i, v)]` and `post_leg[(i, v)]` are sparse arc->flow maps for
    demand i's unprocessed (source->v) and processed (v->sink) legs through
    processing vertex v: the w and g of its commodity. When v is the
    demand's own source the pre leg is empty (flow departs processed); when
    v is its sink the post leg is (flow converts on arrival).
    `served[(i, v)]` is the commodity's p: what the leg pair delivers, and
    the processing volume it uses at v. A candidate pinned to 0 by `fix` has
    no entry in any of these three maps and no column; `x` still lists every
    candidate, at 0 for those.
    """

    x: dict[str, float]
    pre_leg: dict[tuple[int, str], dict[int, float]]
    post_leg: dict[tuple[int, str], dict[int, float]]
    served: dict[tuple[int, str], float]
    objective: float
    meta: dict = field(default_factory=dict)


def _empty_purchase(inst: PurchaseInstance, reason: str, **meta) -> PurchaseSolution:
    n = len(inst.demands)
    flows = EdgeFlowSolution([{} for _ in range(n)], [{} for _ in range(n)],
                             [{} for _ in range(n)], 0.0)
    return PurchaseSolution(set(), 0.0, flows, {i: 0.0 for i in range(n)},
                            {"reason": reason, **meta})


def build_purchase_lp(inst: PurchaseInstance, mode: str = "min",
                      budget_cap: float | None = None,
                      fix: dict[str, float] | None = None) -> LPModel:
    """Arc LP over fractional purchases.

    Variables: x(v) in [0,1] per open candidate, then, per (demand i, open
    candidate v) pair in that order, the pair's split flow
    (`lp.commodities`, one batch for all pairs): w and g columns on the
    arcs its leg rule leaves open and a single p column, at v. The leg rule
    is `FlowNetwork.legs`: the unprocessed leg runs source->v and the
    processed leg v->sink, and a candidate at the demand's source or sink
    leaves a single leg. Cover-style reductions lean on these endpoint
    candidates, so they are first-class here. p(i, v) is both what the
    pair delivers and the processing it uses at v.

    Coupling: per demand, Σ_v p(i, v) >= R_i (min) or <= R_i (budgeted), and
    p(i, v) <= R_i x(v); per candidate, Σ_i p(i, v) <= C(v)x(v) and the flow
    its pairs put on an edge <= B(e)x(v). On top of these, each edge
    carries the summed load of ALL pairs, so the aggregate must fit the
    actual capacity B(e); any integral purchase satisfies that bound, hence
    adding it keeps the LP a relaxation while making rounded superpositions
    fit in expectation. All rows go into the model in one `add_rows` call.

    `mode` "min": minimize total purchase cost, serve every demand in full.
    "budgeted": maximize Σ p, demands become upper bounds, and the
    purchase cost is capped by `budget_cap`; None sets no cap, e.g. when
    `fix` pins the purchase vector to an integral point and the cost is
    known anyway.

    `fix` pins x(v) to fix.get(v, 0). A candidate pinned to 0 gets no x
    column, no pairs and none of the rows they would feed: p <= R x = 0
    lets such pairs deliver nothing, so dropping them leaves the optimum as
    it is. `info["x"]` maps the open candidates to their x columns,
    `info["pairs"]` lists the (i, v) pairs, `info["col"]` holds their
    `commodities` column layouts, pair by pair, and `info["p"]` their p
    columns.
    """
    net = inst.net
    nd, n_arcs = len(inst.demands), net.n_arcs
    m = LPModel(f"purchase-{mode}", sense="min" if mode == "min" else "max")

    xvar: dict[str, int] = {}  # the open candidates' x columns
    for v in inst.candidates():
        if fix is None:
            xvar[v] = m.add_var(0.0, 1.0)
        elif fix.get(v, 0.0) != 0.0:
            xvar[v] = m.add_var(float(fix[v]), float(fix[v]))
    nv, xs = len(xvar), list(xvar.values())

    # the pairs as (source, sink, v) node indices; w's leg runs source->v,
    # g's v->sink
    at = [net.node_index(v) for v in xvar]
    triples = np.array([j for d in inst.demands for v in at
                        for j in (net.node_index(d.source), net.node_index(d.sink), v)],
                       dtype=np.int64).reshape(-1, 3)
    col, balance, balance_coefs, count = commodities(
        m, net, triples[:, :2], net.legs(triples[:, ::2], triples[:, 2:0:-1]),
        np.arange(net.n_nodes) == triples[:, 2:])
    count = count[count > 0]
    # a pair's one p column is its last; per demand, its pairs' p columns
    ps = col.max(axis=1, initial=-1).reshape(nd, nv).tolist()

    # per demand i: Σ_v p(i, v) >= R_i (min) or <= R_i (budgeted, and only
    # when some candidate is open), then per v p(i, v) <= R_i x(v); per
    # candidate v: Σ_i p(i, v) <= C(v) x(v). These rows hold O(demands x
    # candidates) entries, so they are plain lists
    first = int(nv > 0 or mode == "min")
    cols: list[int] = []
    coefs: list[float] = []
    lengths: list[int] = []
    rhs: list[float] = []
    for p, d in zip(ps, inst.demands):
        cols += p * first + [j for pair in zip(p, xs) for j in pair]
        coefs += [1.0] * (nv * first) + [1.0, -d.amount] * nv
        lengths += [nv] * first + [2] * nv
        rhs += [d.amount] * first + [0.0] * nv
    for k, (v, x) in enumerate(zip(xvar, xs)):
        cols += [p[k] for p in ps] + [x]
        coefs += [1.0] * nd + [-inst.potential[v]]
    lengths += [nd + 1] * nv
    rhs += [0.0] * nv

    # per bandwidth group of finite capacity B: per candidate v, the load
    # v's pairs put on the group <= B x(v), then, when there are pairs, the
    # load of all of them <= B, written even when the legs leave none of the
    # group's arcs open (without the empty row, the simplex stops at another
    # optimal vertex). A load lists, pair by pair, w then g on each of the
    # group's arcs: one arc, or the two consecutive arcs of an undirected
    # edge. Each row is a slice of one array, its closed slots (-1) dropped
    group_cols = group_lengths = np.zeros(0, dtype=np.int64)
    group_coefs = group_rhs = np.zeros(0)
    if nv:
        cap = np.array(net.group_capacity)
        k = len(cap)
        size = n_arcs // k if k else 1
        leg = col[:, :2 * n_arcs].reshape(nd, nv, k, size, 2).transpose(2, 1, 0, 4, 3)
        if not all(map(math.isfinite, net.group_capacity)):
            finite = np.isfinite(cap)
            leg, cap, k = leg[finite], cap[finite], int(finite.sum())
        width = nd * 2 * size + 1  # a candidate's load and its x
        leg = leg.reshape(k, nv, width - 1)
        group = np.empty((k, nv, width), dtype=np.int64)
        group[:, :, :-1] = leg
        group[:, :, -1] = xs
        group = group.reshape(k, nv * width)
        row_at = np.arange(0, nv * width + 1, width)
        group_rhs = np.zeros((k, nv + 1))
        group_rhs[:, -1] = cap
        if nd:
            group = np.concatenate((group, leg.reshape(k, nv * (width - 1))), axis=1)
        else:
            row_at, group_rhs = row_at[:-1], group_rhs[:, :-1]
        group_coefs = np.empty(group.shape)
        group_coefs.fill(1.0)
        group_coefs[:, width - 1:nv * width:width] = -cap[:, None]  # each x carries -B
        opened = group >= 0
        group_lengths = np.add.reduceat(opened, row_at, axis=1, dtype=np.int64)
        group_cols, group_coefs = group[opened], group_coefs[opened]

    budget: tuple[list, ...] = ([], [], [], [])  # the budget row, if any
    if mode == "min":
        m.set_objective({j: inst.price(v) for v, j in xvar.items()})
    else:
        m.set_objective(dict.fromkeys([j for p in ps for j in p], 1.0))
        if budget_cap is not None:
            budget = (xs, [inst.price(v) for v in xvar], [nv], [budget_cap])
    lengths = np.concatenate((count, lengths, group_lengths.ravel(), budget[2]))
    senses = np.full(len(lengths), "<=")
    senses[:len(count)] = "=="
    if mode == "min":
        senses[len(count):len(count) + nd * (1 + nv):1 + nv] = ">="
    m.add_rows(np.concatenate((balance, cols, group_cols, budget[0])),
               np.concatenate((balance_coefs, coefs, group_coefs, budget[1])),
               np.cumsum(lengths), senses,
               np.concatenate((np.zeros(len(count)), rhs, group_rhs.ravel(), budget[3])))
    m.info = {"x": xvar, "pairs": [(i, v) for i in range(nd) for v in xvar], "col": col,
              "p": [j for p in ps for j in p], "mode": mode}
    return m


def solve_purchase_lp(inst: PurchaseInstance, mode: str = "min",
                      budget_cap: float | None = None,
                      fix: dict[str, float] | None = None
                      ) -> tuple[PurchaseLPSolution, LPResult]:
    """Build, solve, and unpack the purchase relaxation, its cost capped by
    `budget_cap` in budgeted mode (None, the default: no cap).

    Min mode raises InfeasibleError when the demands cannot be met even with
    every candidate bought outright; an LP that ends otherwise than optimal
    or infeasible raises ResourceLimitError.
    """
    rep = validate_purchase_instance(inst, mode)
    if not rep:
        raise StructuralError("; ".join(rep.problems))

    model = build_purchase_lp(inst, mode, budget_cap=budget_cap, fix=fix)
    res = solve_lp(model)
    infeasible = ("demands unsatisfiable even buying everything" if mode == "min"
                  else "budgeted relaxation infeasible")
    vals = res.optimal_x("purchase LP", infeasible).tolist()
    info = model.info
    x = {v: min(1.0, max(0.0, vals[info["x"][v]])) if v in info["x"] else 0.0
         for v in inst.candidates()}
    pairs = info["pairs"]
    # each pair's w and g flow by arc, read off its column layout (-1: none)
    pre_leg: dict[tuple[int, str], dict[int, float]] = {}
    post_leg: dict[tuple[int, str], dict[int, float]] = {}
    for pair, slots in zip(pairs, info["col"][:, :2 * inst.net.n_arcs].tolist()):
        for legs, part in ((pre_leg, slots[0::2]), (post_leg, slots[1::2])):
            legs[pair] = {a: f for a, j in enumerate(part) if j >= 0 and (f := vals[j]) > SNAP}
    served = {pair: max(0.0, vals[j]) for pair, j in zip(pairs, info["p"])}
    sol = PurchaseLPSolution(x, pre_leg, post_leg, served, res.objective,
                             {"mode": mode, "lp_iterations": res.iterations,
                              "budget_cap": budget_cap})
    return sol, res


def _realize(inst: PurchaseInstance, lp_sol: PurchaseLPSolution,
             weight: dict[str, float], meta: dict) -> PurchaseSolution:
    """Buy the vertices `weight` names and route each (i, v) leg pair of
    `lp_sol` at weight[v], scaled down to hard feasibility.

    Two scalings, both no-ops when nothing overshoots: one global factor
    gamma for the worst edge/node overload, recorded as meta["gamma"], then
    per-demand factors so nobody is credited more than they asked for.
    """
    n = len(inst.demands)
    flows = EdgeFlowSolution([{} for _ in range(n)], [{} for _ in range(n)],
                             [{} for _ in range(n)], 0.0)
    for legs, unprocessed in ((lp_sol.pre_leg, True), (lp_sol.post_leg, False)):
        for (i, v), leg in legs.items():
            if v not in weight:
                continue
            w, f, u = weight[v], flows.flow[i], flows.unprocessed[i]
            for a, val in leg.items():
                f[a] = f.get(a, 0.0) + w * val
                if unprocessed:
                    u[a] = u.get(a, 0.0) + w * val
    delivered = [0.0] * n
    for (i, v), val in lp_sol.served.items():
        if v in weight and val > 0.0:
            flows.processing[i][v] = weight[v] * val
            delivered[i] += weight[v] * val

    caps = inst.net.group_capacity
    loads = [(load, caps[g]) for g, load in flows.group_loads(inst.net).items()]
    loads += [(load, inst.potential[v]) for v, load in flows.node_loads().items()]
    peak = max([1.0] + [math.inf if cap <= 0.0 else load / cap
                        for load, cap in loads if load > cap])
    if not math.isfinite(peak):
        raise StructuralError("flow on a zero-capacity resource")
    gamma = peak * (1.0 + 1e-12) if peak > 1.0 else 1.0

    for i, d in enumerate(inst.demands):
        maps = (flows.flow[i], flows.unprocessed[i], flows.processing[i])
        if gamma > 1.0:
            for m_ in maps:
                for key in m_:
                    m_[key] /= gamma
            delivered[i] /= gamma
        if delivered[i] > d.amount:
            s = d.amount / (delivered[i] * (1.0 + 1e-12))
            for m_ in maps:
                for key in m_:
                    m_[key] *= s
            delivered[i] = d.amount
    return _package(inst, set(weight), flows, delivered, {**meta, "gamma": gamma})


def _package(inst: PurchaseInstance, purchased: set[str], flows: EdgeFlowSolution,
             delivered: list[float], meta: dict) -> PurchaseSolution:
    flows.objective = sum(delivered)
    served = {}
    for i, d in enumerate(inst.demands):
        served[i] = delivered[i] / d.amount if d.amount > 0 else 1.0
    cost = sum(inst.price(v) for v in purchased)
    return PurchaseSolution(purchased, cost, flows, served, meta)


def rounding_rounds(n_nodes: int, delta: float) -> int:
    """Sampling repetitions that push the failure probability to 1/poly(n)."""
    eps = delta / 2.0
    return math.ceil(9.0 * math.log(max(n_nodes, 2)) / (eps * eps))


def round_min_purchase(inst: PurchaseInstance, lp_sol: PurchaseLPSolution,
                       delta: float, rng_seed: int) -> PurchaseSolution:
    """Randomized rounding of the min-cost relaxation.

    Runs t = `rounding_rounds(n, delta)` independent rounds, each buying
    candidate v with probability x(v) and routing its leg flows scaled up by
    1/x(v); the union is purchased and the superposed flow is averaged over
    rounds. The average respects node budgets outright and edge budgets in
    expectation (the aggregate edge constraint makes the expectation exactly
    the LP load), so the final clamp is almost always the identity; it
    exists because the service guarantee is probabilistic but the
    feasibility contract here is not. Delivered amounts land at
    (1-delta)R_i or better with high probability.

    An integral LP solution passes through exactly: every round buys the
    support, the average equals the LP flow, and the clamps change nothing.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    eps = delta / 2.0
    t = rounding_rounds(inst.net.n_nodes, delta)
    rng = random.Random(rng_seed)

    support = [v for v in inst.candidates() if lp_sol.x.get(v, 0.0) > SNAP]
    xs = [lp_sol.x[v] for v in support]
    hits = [0] * len(support)
    draw = rng.random
    for _ in range(t):
        for j, x in enumerate(xs):
            if draw() < x:
                hits[j] += 1
    counts = dict(zip(support, hits))

    weight = {v: c / (lp_sol.x[v] * t) for v, c in counts.items() if c > 0}
    return _realize(inst, lp_sol, weight,
                    {"algorithm": "purchase-min-rounding", "delta": delta,
                     "epsilon": eps, "rounds": t, "seed": rng_seed,
                     "lp_cost": lp_sol.objective})


def _prune_potential(inst: PurchaseInstance, keep) -> PurchaseInstance:
    return replace(inst, potential={v: c for v, c in inst.potential.items()
                                    if keep(v)})


def _best_single(cands: list[str], bound: list[float], evaluate):
    """The highest-valued `evaluate(v)` over `cands`, ties going to the
    earliest candidate, evaluating only candidates that could still win.

    `bound[j]` caps the value of `cands[j]`. Candidates are tried in
    decreasing bound (stable, so equal bounds keep their order), and the
    scan stops at the first whose bound plus the verifier's feasibility
    slack is below the best value so far: no later bound is larger.
    """
    best, best_j = None, -1
    for j in sorted(range(len(cands)), key=lambda j: -bound[j]):
        if best is not None and bound[j] + feas_slack(bound[j]) < best.value:
            break
        sol = evaluate(cands[j])
        if best is None or sol.value > best.value or \
                (sol.value == best.value and j < best_j):
            best, best_j = sol, j
    return best


def round_budgeted_purchase(inst: PurchaseInstance, rng_seed: int) -> PurchaseSolution:
    """Budget-constrained purchase by LP rounding, best of several attempts.

    Solves the relaxation at half budget. If some single affordable vertex
    already supports a 1/(2 ln n) fraction of the relaxation value (checked
    by re-solving with the purchase vector pinned to that vertex), the
    randomized stage is skipped. Otherwise vertices costing k/ln n or more
    are pruned, the relaxation is re-solved, and each of ceil(log2 n) + 3
    repetitions samples a purchase set (v with probability x(v)) whose
    flows are scaled by 1/(4 x(v) ln n); repetitions that bust the budget
    are discarded outright, so the returned cost is <= k always, not merely
    in expectation.

    The answer is the best of a candidate pool that always contains the best
    single vertex and, when the budget covers every candidate at once, the
    full candidate set (both evaluated by the same pinned-purchase LP); a
    generous budget therefore degrades to the exact relaxation optimum
    instead of stopping at one vertex.

    A pinned vertex v serves at most min(C(v), sum of the demand amounts),
    so single vertices are tried best bound first, and a vertex whose bound
    cannot beat the best value so far is not solved. The best single vertex
    is still the one an exhaustive scan in node order keeps: the first of
    the highest value.
    """
    rep_check = validate_purchase_instance(inst, "budgeted")
    if not rep_check:
        raise StructuralError("; ".join(rep_check.problems))
    k = float(inst.budget)
    if k <= 0.0:
        return _empty_purchase(inst, "zero budget")
    n = max(inst.net.n_nodes, 2)
    ln_n = math.log(n)
    rng = random.Random(rng_seed)

    affordable = _prune_potential(inst, lambda v: inst.price(v) <= k)
    cands = affordable.candidates()
    if not cands:
        return _empty_purchase(inst, "no affordable candidates")
    lp_sol, _ = solve_purchase_lp(affordable, "budgeted", budget_cap=k / 2)
    if lp_sol.objective <= SNAP:
        return _empty_purchase(inst, "relaxation value zero",
                               lp_value=lp_sol.objective)

    def restricted(subset: set[str], branch: str) -> PurchaseSolution:
        fix = {u: (1.0 if u in subset else 0.0) for u in cands}
        sol_f, _ = solve_purchase_lp(affordable, "budgeted", fix=fix)
        return _realize(affordable, sol_f, dict.fromkeys(subset, 1.0),
                        {"algorithm": "purchase-budgeted", "branch": branch,
                         "seed": rng_seed, "lp_value": lp_sol.objective})

    pool: list[PurchaseSolution] = []
    total = sum(d.amount for d in inst.demands)
    bound = [min(affordable.potential[v], total) for v in cands]
    best_single = _best_single(cands, bound, lambda v: restricted({v}, "single"))
    if best_single is not None and best_single.value > SNAP:
        pool.append(best_single)
    if len(cands) > 1 and sum(inst.price(v) for v in cands) <= k:
        pool.append(restricted(set(cands), "full-set"))

    shortcut = best_single is not None and \
        best_single.value >= lp_sol.objective / (2.0 * ln_n)
    if not shortcut:
        pruned = _prune_potential(affordable, lambda v: inst.price(v) < k / ln_n)
        sample_sol = None
        if pruned.candidates():
            sample_sol, _ = solve_purchase_lp(pruned, "budgeted", budget_cap=k / 2)
        if sample_sol is not None and sample_sol.objective > SNAP:
            scale = 1.0 / (4.0 * ln_n)
            for r in range(math.ceil(math.log2(n)) + 3):
                picked = [v for v in pruned.candidates()
                          if sample_sol.x.get(v, 0.0) > SNAP
                          and rng.random() < sample_sol.x[v]]
                if not picked:
                    continue
                if sum(inst.price(v) for v in picked) > k:
                    continue  # busting the budget disqualifies the attempt
                weight = {v: scale / sample_sol.x[v] for v in picked}
                pool.append(_realize(pruned, sample_sol, weight,
                                     {"algorithm": "purchase-budgeted",
                                      "branch": "sampled", "repetition": r,
                                      "seed": rng_seed,
                                      "lp_value": lp_sol.objective}))

    if not pool:
        return _empty_purchase(inst, "no attempt survived the budget",
                               lp_value=lp_sol.objective)
    best = max(pool, key=lambda s: s.value)
    best.meta["pool_size"] = len(pool)
    best.meta["shortcut"] = shortcut
    return best


# --- undirected single-source greedy ---------------------------------------

def _max_flow(net: FlowNetwork, caps: list[float], feed: dict[str, float],
              sink: str) -> tuple[float, list[float]]:
    """Max flow into `sink` from a private pool that feeds each node v of
    `feed` by an arc of capacity feed[v], over `net`'s bandwidth groups at
    the per-group capacities `caps`.

    Returns the value and phi, each group's net flow along its first arc:
    `net.groups` first, then the feeders in `feed` order. An undirected
    edge's two directions share its capacity. Edmonds-Karp: augment along
    BFS-shortest paths of the residual network, in which a residual at or
    below SNAP counts as saturated. An edge of capacity c carrying net flow
    phi from a to b has residual c - phi forward and c + phi back (0 + phi
    for a lone arc), which is exact because opposite flows on one edge only
    waste capacity. An augmenting path of infinite capacity raises
    InfeasibleError.
    """
    pool = object()  # an object, not a string, so that no node id can be it
    # group k runs from a to b; up[k] is its capacity a->b and down[k] b->a
    ends = [(a, b) for a, b, _ in net.edges] + [(pool, v) for v in feed]
    up = list(caps) + list(feed.values())
    down = ([0.0] * len(caps) if net.directed else list(caps)) + [0.0] * len(feed)
    adj: dict = {v: [] for v in (*net.nodes, pool)}
    for k, (a, b) in enumerate(ends):
        adj[a].append((k, 1, b))
        adj[b].append((k, -1, a))

    phi = [0.0] * len(up)

    def residual(k: int, sign: int) -> float:
        return up[k] - phi[k] if sign > 0 else down[k] + phi[k]

    value = 0.0
    while True:
        prev: dict = {pool: None}
        layer = [pool]
        while layer and sink not in prev:
            reached = []
            for u in layer:
                for k, sign, w in adj[u]:
                    if w in prev:
                        continue
                    if residual(k, sign) > SNAP:
                        prev[w] = (u, k, sign)
                        reached.append(w)
            layer = reached
        if sink not in prev:
            break
        path = []
        w = sink
        while prev[w] is not None:
            u, k, sign = prev[w]
            path.append((k, sign))
            w = u
        delta = min(residual(k, sign) for k, sign in path)
        if delta == math.inf:
            raise InfeasibleError("max flow unbounded: a path of infinite capacity")
        for k, sign in path:
            # clamped, so that a saturated edge holds its capacity exactly
            if sign > 0:
                phi[k] = min(phi[k] + delta, up[k])
            else:
                phi[k] = max(phi[k] - delta, -down[k])
        value += delta
    return value, phi


class _ProcessingFlowOracle:
    """f(P) = max flow a purchased set P can push to the source through the
    quarter-capacity copy of the network, each p in P fed at its potential:
    `_max_flow` on the network at c/4 per group, fed at P's members in
    sorted order. Memoized: the greedy re-evaluates overlapping sets heavily.
    """

    def __init__(self, inst: PurchaseInstance, source: str):
        self.inst = inst
        self.source = source
        self.caps = [c / 4.0 for c in inst.net.group_capacity]
        self.cache: dict[frozenset, tuple[float, dict]] = {}

    def __call__(self, subset) -> float:
        return self.evaluate(subset)[0]

    def evaluate(self, subset) -> tuple[float, dict[str, float]]:
        """Flow value plus the processing load each member carries: the
        intake of its feeder."""
        key = frozenset(subset)
        if key in self.cache:
            return self.cache[key]
        feed = {p: self.inst.potential.get(p, 0.0) for p in sorted(key)}
        value, phi = _max_flow(self.inst.net, self.caps, feed, self.source)
        intake = phi[len(self.caps):]
        out = (value, {p: f for p, f in zip(feed, intake) if f > SNAP})
        self.cache[key] = out
        return out


# the partial-enumeration depth of the knapsack greedy
_DEPTH = 3


def _knapsack_greedy(oracle, items: list[str], price,
                     budget: float) -> tuple[set[str], float]:
    """Partial-enumeration greedy for monotone submodular max under knapsack.

    Every seed set of size <= _DEPTH that fits the budget is extended
    greedily by the best marginal gain per unit cost; depth 3 carries the
    classic (1-1/e) factor.
    """
    from itertools import combinations

    best: tuple[set[str], float] = (set(), oracle(frozenset()))
    seeds = [()]
    for size in range(1, min(_DEPTH, len(items)) + 1):
        seeds += list(combinations(items, size))
    for seed in seeds:
        S = set(seed)
        spent = sum(price(v) for v in S)
        if spent > budget:
            continue
        val = oracle(S)
        while True:
            pick, pick_ratio, pick_val = None, 0.0, val
            for v in items:
                if v in S or spent + price(v) > budget:
                    continue
                cand = oracle(S | {v})
                gain = cand - val
                if gain <= SNAP:
                    continue
                ratio = gain / max(price(v), 1e-30)
                if ratio > pick_ratio:
                    pick, pick_ratio, pick_val = v, ratio, cand
            if pick is None:
                break
            S.add(pick)
            spent += price(pick)
            val = pick_val
        if val > best[1] or (val == best[1] and not best[0] and S):
            best = (S, val)
    return best


def greedy_budgeted_single_source(inst: PurchaseInstance) -> PurchaseSolution:
    """Greedy purchase for undirected networks where all demands share one
    source.

    Edge capacity is split: half reserved for final routing toward the
    sinks, the other half for the processing detour, which itself is split
    into a quarter out to the purchased nodes and a quarter back (the return
    trip mirrors the outbound flow on the same undirected edges, so its
    feasibility is free). Purchases maximize the quarter-capacity flow the
    bought nodes can process and return, a monotone submodular objective
    handled by the knapsack greedy; the delivered value is that flow pushed
    through the routing half toward the sinks, demand-capped: the path
    master's max flow over a copy of the network at half bandwidth, every
    path scaled by min(1, processable / its value). Each oracle call is a
    combinatorial max-flow (`_max_flow`, Edmonds-Karp), and each bought
    node's feeder intake is its processing load; the path master is the
    only LP solved. Seed sets are enumerated up to size 3, the depth the
    (1-1/e) guarantee needs.
    """
    rep = validate_purchase_instance(inst, "budgeted")
    if not rep:
        raise StructuralError("; ".join(rep.problems))
    if inst.net.directed:
        raise StructuralError("greedy purchase handles undirected networks only")
    sources = {d.source for d in inst.demands}
    if len(sources) != 1:
        raise StructuralError(
            "greedy purchase needs a single shared source; "
            "use round_budgeted_purchase for general instances")
    source = sources.pop()
    k = float(inst.budget)
    if k <= 0.0:
        return _empty_purchase(inst, "zero budget")

    oracle = _ProcessingFlowOracle(inst, source)
    # the source itself is a fine place to process (its feeder reaches the
    # oracle sink without touching any edge budget)
    items = [v for v in inst.candidates() if inst.price(v) <= k]
    chosen, proc_value = _knapsack_greedy(oracle, items, inst.price, k)
    if proc_value <= SNAP:
        return _empty_purchase(inst, "no processable flow",
                               candidates=len(items))
    _, proc_load = oracle.evaluate(chosen)

    # routing half: the path master over B/2, scaled down to what the
    # detour can process; a demand delivers what its paths carry
    net = inst.net
    half = FlowNetwork(net.nodes, [(u, v, c / 2.0) for u, v, c in net.edges],
                       net.node_capacity, directed=False)
    res, cols, _ = solve_walk_master(half, inst.demands, paths=True)
    # x * processable / value, not x * (processable / value): a single path
    # then delivers processable exactly
    carried = res.x * proc_value / res.objective if res.objective > proc_value else res.x

    n = len(inst.demands)
    flow: list[dict[int, float]] = [{} for _ in range(n)]
    delivered = [0.0] * n
    for (i, arcs, _), x in zip(cols, carried.tolist()):
        if x > SNAP:
            delivered[i] += x
            for a in arcs:
                flow[i][a] = flow[i].get(a, 0.0) + x
    served_total = sum(delivered)

    # attribute processing to demands pro rata; the detour legs live on the
    # other half of the capacity and are reported aggregate in meta
    proc = [{} for _ in range(n)]
    if served_total > SNAP and proc_value > SNAP:
        use = served_total / proc_value
        for i in range(n):
            share = delivered[i] / served_total
            for v, amount in proc_load.items():
                val = amount * use * share
                if val > SNAP:
                    proc[i][v] = val
    unproc = [{} for _ in range(n)]
    meta = {"algorithm": "purchase-greedy", "processable": proc_value,
            "route_value": served_total, "depth": _DEPTH,
            "halving": {"route": 0.5, "detour_each_way": 0.25},
            "processing_load": proc_load}
    return _package(inst, set(chosen), EdgeFlowSolution(flow, unproc, proc, 0.0),
                    delivered, meta)
