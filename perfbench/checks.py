"""Output checks. A failed check fails its operation; the run goes on.

Each operation yields one or more items, the unit the end-to-end metrics
count: one per call, except a capacity sweep, which yields one per grid
point, timed by the harness itself (its lp and naive solver times).
"""

from __future__ import annotations

from dataclasses import dataclass

import pflow

from workloads import INFEASIBLE

EXACT_TOL = 1e-6     # exact objectives vs the reference, relative
FEAS_TOL = 1e-7      # loads, costs and bounds, relative to the limit


@dataclass
class Item:
    latency: float
    quality: float | None   # objective / reference; None when reference is 0
    problem: str | None = None


def _slack(limit: float) -> float:
    return FEAS_TOL * max(1.0, abs(limit))


def _ratio(value: float, ref: float) -> float | None:
    return value / ref if ref > 0 else None


def position_problems(demands, sol) -> list[str]:
    """Processing must sit strictly after the walk's last visit to the
    source and before its first arrival at the sink, as in the edge LP
    (unprocessed flow may not enter the sink, processed flow may not leave
    the source). verify_walk_solution does not enforce this."""
    out = []
    for k, e in enumerate(sol.entries):
        d = demands[e.demand]
        nodes = e.nodes
        if d.source not in nodes or d.sink not in nodes:
            out.append(f"walk {k} does not join {d.source} to {d.sink}")
            continue
        last_s = max(j for j, v in enumerate(nodes) if v == d.source)
        first_t = nodes.index(d.sink)
        allowed = set(nodes[last_s + 1:first_t])
        for v, amount in e.processing.items():
            if amount > 0 and v not in allowed:
                out.append(f"walk {k}: processing at {v} outside the "
                           f"stretch between source and sink")
    return out


def purchase_problems(inst, sol, budget: float | None) -> list[str]:
    """Cost within budget, no load above a capacity bought or installed,
    no demand over-served."""
    net, out = inst.net, []
    if budget is not None and sol.cost > budget + _slack(budget):
        out.append(f"cost {sol.cost} exceeds budget {budget}")
    for g, load in sol.flows.group_loads(net).items():
        cap = net.group_capacity[g]
        if load > cap + _slack(cap):
            out.append(f"edge group {g}: load {load} over capacity {cap}")
    for v, load in sol.flows.node_loads().items():
        cap = net.node_capacity[v] + (inst.potential.get(v, 0.0)
                                      if v in sol.purchased else 0.0)
        if load > cap + _slack(cap):
            out.append(f"node {v}: processing {load} over purchased {cap}")
    for i, d in enumerate(inst.demands):
        got = sol.flows.delivered(net, inst.demands, i)
        if got > d.amount + _slack(d.amount):
            out.append(f"demand {i}: delivered {got} over amount {d.amount}")
    return out


def check(op, ref: dict, out, err: BaseException | None, dt: float) -> list[Item]:
    """Judge one operation's output against its reference."""
    if op.kind == "sweep":
        return _check_sweep(ref, out, err, dt)
    if ref["status"] == INFEASIBLE:
        if isinstance(err, pflow.InfeasibleError):
            return [Item(dt, None)]
        return [Item(dt, None, "reference is infeasible but the operation "
                               f"ended with {type(err).__name__ if err else 'a result'}")]
    if err is not None:
        return [Item(dt, None, f"{type(err).__name__}: {err}")]

    ref_value = ref["value"]
    sol = out.solution
    problems: list[str] = []
    if op.kind in ("exact", "approx"):
        value = shown = sol.objective
        if not out.report:
            problems += list(out.report.problems)
        problems += position_problems(out.inst.demands, sol)
        if op.kind == "exact":
            if abs(value - ref_value) > EXACT_TOL * max(1.0, abs(ref_value)):
                problems.append(f"objective {value} != reference {ref_value}")
        else:
            eps = op.params["epsilon"]
            if value < (1.0 - eps) * ref_value - _slack(ref_value):
                problems.append(f"objective {value} below (1-{eps}) x {ref_value}")
            if value > ref_value + _slack(ref_value):
                problems.append(f"objective {value} above the LP optimum {ref_value}")
        quality = _ratio(value, ref_value)
    else:
        shown = sol.value
        budget = None if op.kind == "min" else out.inst.budget
        problems += purchase_problems(out.inst, sol, budget)
        if op.kind == "min":
            value = sol.cost
            if value < ref_value - _slack(ref_value):
                problems.append(f"cost {value} below the relaxation {ref_value}")
            # inverted so that higher is better, as for every other quality
            quality = ref_value / value if value > 0 else None
        else:
            value = shown
            if value > ref_value + _slack(ref_value):
                problems.append(f"value {value} above the relaxation {ref_value}")
            quality = _ratio(value, ref_value)
        if ref_value <= 0 and abs(value) > _slack(0.0):
            problems.append(f"objective {value} although the reference is 0")
    doc_value = out.document.get("objective")
    if doc_value is None or abs(doc_value - shown) > _slack(shown):
        problems.append(f"solution document objective {doc_value} != {shown}")
    if problems:
        return [Item(dt, None, "; ".join(problems))]
    return [Item(dt, quality)]


def _check_sweep(ref: dict, out, err, dt: float) -> list[Item]:
    """One item per grid point: its lp and naive records together.

    The naive baseline is checked (it runs and stays within [0, LP]) but
    kept out of quality: its gap to the LP is the baseline's point, and its
    worst case over random instances swings from seed to seed, down to 0.
    """
    expected = ref["values"]
    if err is not None:
        msg = f"{type(err).__name__}: {err}"
        return [Item(dt, None, msg) for _ in expected]
    by_point: dict[str, dict] = {}
    for r in out.records:
        by_point.setdefault(r.instance, {})[r.algorithm] = r
    items = []
    for point, lp in expected.items():
        recs = by_point.pop(point, {})
        problems = []
        for alg in ("lp", "naive"):
            r = recs.get(alg)
            if r is None:
                problems.append(f"no {alg} record")
            elif not r.feasible or r.error:
                problems.append(f"{alg}: {r.error}")
        if not problems:
            got, naive = recs["lp"].objective, recs["naive"].objective
            if abs(got - lp) > EXACT_TOL * max(1.0, abs(lp)):
                problems.append(f"lp {got} != reference {lp}")
            if not -_slack(lp) <= naive <= lp + _slack(lp):
                problems.append(f"naive {naive} outside [0, {lp}]")
        latency = sum(r.wall_time for r in recs.values())
        if problems:
            items.append(Item(latency, None, f"{point}: " + "; ".join(problems)))
        else:
            items.append(Item(latency, _ratio(recs["lp"].objective, lp)))
    for point in by_point:
        items.append(Item(0.0, None, f"unexpected grid point {point}"))
    return items
