"""Linear programs over flow networks: model container, edge formulation, solver.

The arc formulation is polynomially sized and equivalent to optimizing over
all 2-walks directly. It splits each demand's flow as the paper does: an
unprocessed part w and a processed part g on each arc, plus the volume p
processed at each node, which moves flow from the first part to the second.
Flow leaves the source unprocessed (g = 0 on its out-arcs) and reaches the
sink processed (w = 0 on its in-arcs). An arc's load is w + g, and the
delivered value of a demand is the net w + g out of its source (gross outflow
minus anything that circles back, which processing detours through the
source can legitimately do).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .model import (Demand, EdgeFlowSolution, FlowNetwork, InfeasibleError,
                    ResourceLimitError)

DEFAULT_MAXITER = 200_000


@dataclass
class Variable:
    name: str
    lo: float = 0.0
    hi: float = math.inf


@dataclass
class Constraint:
    coeffs: list[tuple[int, float]]
    sense: str  # "<=", ">=", "=="
    rhs: float
    name: str = ""


class LPModel:
    """A sparse LP: named variables, linear constraints, one linear objective."""

    def __init__(self, name: str = "lp", sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"bad objective sense {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}
        self.info: dict = {}  # builder-specific handles, e.g. variable index maps

    def add_var(self, name: str, lo: float = 0.0, hi: float = math.inf) -> int:
        self.variables.append(Variable(name, lo, hi))
        return len(self.variables) - 1

    def add_constraint(self, coeffs, sense: str, rhs: float, name: str = "") -> int:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad constraint sense {sense!r}")
        self.constraints.append(Constraint(list(coeffs), sense, rhs, name))
        return len(self.constraints) - 1

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self.objective = dict(coeffs)

    @property
    def n_vars(self) -> int:
        return len(self.variables)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    assignment: dict[str, float]
    objective: float
    iterations: int = 0


def solve_lp(model: LPModel, maxiter: int = DEFAULT_MAXITER) -> LPResult:
    """Solve with a simplex backend; desk-scale models only.

    Raises ResourceLimitError if the iteration budget is exhausted.
    """
    n = model.n_vars
    if n == 0:
        return LPResult("optimal", {}, 0.0, 0)

    c = np.zeros(n)
    for j, coef in model.objective.items():
        c[j] = coef
    if model.sense == "max":
        c = -c

    ub_rows, ub_cols, ub_data, b_ub = [], [], [], []
    eq_rows, eq_cols, eq_data, b_eq = [], [], [], []
    for con in model.constraints:
        if con.sense == "==":
            r = len(b_eq)
            for j, coef in con.coeffs:
                eq_rows.append(r)
                eq_cols.append(j)
                eq_data.append(coef)
            b_eq.append(con.rhs)
        else:
            flip = -1.0 if con.sense == ">=" else 1.0
            r = len(b_ub)
            for j, coef in con.coeffs:
                ub_rows.append(r)
                ub_cols.append(j)
                ub_data.append(flip * coef)
            b_ub.append(flip * con.rhs)

    A_ub = csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(len(b_ub), n)) if b_ub else None
    A_eq = csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(len(b_eq), n)) if b_eq else None
    bounds = [(v.lo if math.isfinite(v.lo) else None,
               v.hi if math.isfinite(v.hi) else None) for v in model.variables]

    res = linprog(c, A_ub=A_ub, b_ub=np.asarray(b_ub) if b_ub else None,
                  A_eq=A_eq, b_eq=np.asarray(b_eq) if b_eq else None,
                  bounds=bounds, method="highs-ds",
                  options={"maxiter": maxiter})

    nit = int(getattr(res, "nit", 0) or 0)
    if res.status == 1:
        raise ResourceLimitError(f"simplex iteration limit {maxiter} exhausted")
    if res.status == 2:
        return LPResult("infeasible", {}, math.nan, nit)
    if res.status == 3:
        return LPResult("unbounded", {}, math.inf if model.sense == "max" else -math.inf, nit)
    if res.status != 0:
        raise ResourceLimitError(f"solver failed with status {res.status}: {res.message}")

    assignment = {v.name: float(x) for v, x in zip(model.variables, res.x)}
    obj = float(res.fun)
    if model.sense == "max":
        obj = -obj
    return LPResult("optimal", assignment, obj, nit)


@dataclass(frozen=True)
class Objective:
    """What the edge LP optimizes.

    max-total-flow: maximize total delivered processed flow under hard caps.
    min-max-congestion: demands become hard requirements, capacities soften
    into load/capacity ratios, and the largest ratio is minimized.
    min-weighted-congestion: same, minimizing a weighted sum of the ratios.
    Weights are keyed by bandwidth group index / node id; missing means 1.
    """

    kind: str = "max-total-flow"
    edge_weights: dict | None = None
    node_weights: dict | None = None


def build_edge_lp(net: FlowNetwork, demands: list[Demand],
                  objective: Objective = Objective()) -> LPModel:
    """Arc formulation of the processed-flow problem, split as in the paper.

    Per demand and arc: w (unprocessed flow), barred from arcs into the sink,
    and g (processed flow), barred from arcs out of the source; per demand and
    non-source node: p (volume processed there). Node processing links the two
    parts: p = w_in - w_out at every non-source node, and g_out - g_in = p
    away from both endpoints. An arc's total flow w + g draws on its shared
    bandwidth, Σp on node capacity, and the net source outflow of w + g is
    what a demand delivers: capped by a finite amount, or required in full
    under the congestion objectives, where a zero-capacity edge carries
    nothing and a zero-capacity node processes nothing.
    """
    kind = objective.kind
    if kind not in ("max-total-flow", "min-max-congestion", "min-weighted-congestion"):
        raise ValueError(f"unknown objective kind {kind!r}")
    congestion = kind != "max-total-flow"
    if congestion and any(not math.isfinite(d.amount) for d in demands):
        raise ValueError("congestion objectives need finite demand amounts")

    m = LPModel(name=f"edge-{kind}", sense="min" if congestion else "max")
    nd = len(demands)
    wvar: list[dict[int, int]] = [{} for _ in range(nd)]
    gvar: list[dict[int, int]] = [{} for _ in range(nd)]
    pvar: list[dict[str, int]] = [{} for _ in range(nd)]

    for i, d in enumerate(demands):
        for a, arc in enumerate(net.arcs):
            shut = congestion and net.group_capacity[arc.group] <= 0
            wvar[i][a] = m.add_var(f"w_{i}_{a}",
                                   hi=0.0 if shut or arc.head == d.sink else math.inf)
            gvar[i][a] = m.add_var(f"g_{i}_{a}",
                                   hi=0.0 if shut or arc.tail == d.source else math.inf)
        for v in net.nodes:
            if v != d.source:
                hi = 0.0 if congestion and net.node_capacity[v] <= 0 else math.inf
                pvar[i][v] = m.add_var(f"p_{i}_{net.node_index(v)}", hi=hi)

    def terms(parts, arcs, sign: float) -> list[tuple[int, float]]:
        return [(part[a], sign) for a in arcs for part in parts]

    net_out = []
    for i, d in enumerate(demands):
        wi, gi, both = (wvar[i],), (gvar[i],), (wvar[i], gvar[i])
        for v in net.nodes:
            if v == d.source:
                continue
            ins, outs = net.in_arcs[v], net.out_arcs[v]
            p = [(pvar[i][v], 1.0)]
            m.add_constraint(p + terms(wi, ins, -1.0) + terms(wi, outs, 1.0), "==", 0.0,
                             f"unproc_{i}_{net.node_index(v)}")
            if v != d.sink:
                m.add_constraint(p + terms(gi, ins, 1.0) + terms(gi, outs, -1.0), "==", 0.0,
                                 f"proc_{i}_{net.node_index(v)}")
        out_i = (terms(both, net.out_arcs[d.source], 1.0)
                 + terms(both, net.in_arcs[d.source], -1.0))
        if congestion:
            m.add_constraint(out_i, ">=", d.amount, f"need_{i}")
        elif math.isfinite(d.amount) and out_i:
            m.add_constraint(out_i, "<=", d.amount, f"cap_{i}")
        net_out += out_i

    theta = None
    if kind == "min-max-congestion":
        theta = m.add_var("cong")
    ew = objective.edge_weights or {}
    nw = objective.node_weights or {}
    weighted_obj: dict[int, float] = {}

    for g, cap in enumerate(net.group_capacity):
        coeffs = terms(wvar + gvar, net.groups[g], 1.0)
        if not coeffs:
            continue
        if kind == "max-total-flow":
            m.add_constraint(coeffs, "<=", cap, f"bw_{g}")
        elif cap > 0:
            if theta is not None:
                m.add_constraint(coeffs + [(theta, -cap)], "<=", 0.0, f"bw_{g}")
            else:
                for j, c in coeffs:
                    weighted_obj[j] = weighted_obj.get(j, 0.0) + ew.get(g, 1.0) * c / cap
    for v in net.nodes:
        cap = net.node_capacity[v]
        coeffs = [(pvar[i][v], 1.0) for i in range(nd) if v in pvar[i]]
        if not coeffs:
            continue
        if kind == "max-total-flow":
            m.add_constraint(coeffs, "<=", cap, f"pc_{net.node_index(v)}")
        elif cap > 0:
            if theta is not None:
                m.add_constraint(coeffs + [(theta, -cap)], "<=", 0.0, f"pc_{net.node_index(v)}")
            else:
                for j, c in coeffs:
                    weighted_obj[j] = weighted_obj.get(j, 0.0) + nw.get(v, 1.0) * c / cap

    if kind == "max-total-flow":
        obj: dict[int, float] = {}
        for j, c in net_out:
            obj[j] = obj.get(j, 0.0) + c
        m.set_objective(obj)
    elif kind == "min-max-congestion":
        m.set_objective({theta: 1.0})
    else:
        m.set_objective(weighted_obj)

    m.info = {"w": wvar, "g": gvar, "p": pvar, "theta": theta, "kind": kind}
    return m


SNAP = 1e-12


def _sparse(values: dict) -> dict:
    return {key: x for key, x in values.items() if x > SNAP}


def extract_edge_solution(model: LPModel, assignment: dict[str, float],
                          net: FlowNetwork, demands: list[Demand]) -> EdgeFlowSolution:
    """Pull per-demand flows out of a solved edge LP, snapping float dust to zero.

    The solution carries each arc's total flow w + g next to its unprocessed
    part w, so flow >= unprocessed holds by construction.
    """
    if not model.info or "g" not in model.info:
        raise ValueError("model was not built by build_edge_lp")

    def get(var_idx: int) -> float:
        return max(0.0, assignment.get(model.variables[var_idx].name, 0.0))

    info = model.info
    flow, unproc, proc = [], [], []
    for i in range(len(demands)):
        w = {a: get(j) for a, j in info["w"][i].items()}
        g = {a: get(j) for a, j in info["g"][i].items()}
        flow.append(_sparse({a: w[a] + g[a] for a in w}))
        unproc.append(_sparse(w))
        proc.append(_sparse({v: get(j) for v, j in info["p"][i].items()}))
    sol = EdgeFlowSolution(flow, unproc, proc, 0.0,
                           meta={"algorithm": "lp", "objective_kind": info["kind"]})
    sol.objective = sum(sol.delivered(net, demands, i) for i in range(len(demands)))
    theta = info.get("theta")
    if theta is not None:
        sol.meta["congestion"] = assignment.get(model.variables[theta].name, 0.0)
    return sol


def solve_edge_lp(net: FlowNetwork, demands: list[Demand],
                  objective: Objective = Objective()) -> tuple[EdgeFlowSolution, LPResult]:
    """Build, solve, and extract in one go."""
    model = build_edge_lp(net, demands, objective)
    res = solve_lp(model)
    if res.status == "infeasible":
        raise InfeasibleError("edge LP infeasible (demands cannot all be met)")
    if res.status != "optimal":
        raise ResourceLimitError(f"edge LP ended {res.status}")
    sol = extract_edge_solution(model, res.assignment, net, demands)
    sol.meta["lp_objective"] = res.objective
    sol.meta["lp_iterations"] = res.iterations
    return sol, res


_NAME_RE = re.compile(r"[^A-Za-z0-9_.]")


def _mps_name(base: str, taken: set, fallback: str) -> str:
    name = _NAME_RE.sub("_", base) if base else fallback
    if not name or name in taken:
        name = fallback
    taken.add(name)
    return name


def write_mps(model: LPModel, path: str) -> None:
    """Serialize to the row/column interchange format most LP tools accept."""
    taken: set[str] = set()
    rownames = [_mps_name(c.name, taken, f"R{k}") for k, c in enumerate(model.constraints)]
    taken = set()
    colnames = [_mps_name(v.name, taken, f"C{j}") for j, v in enumerate(model.variables)]

    by_col: list[list[tuple[str, float]]] = [[] for _ in model.variables]
    for k, con in enumerate(model.constraints):
        merged: dict[int, float] = {}
        for j, coef in con.coeffs:
            merged[j] = merged.get(j, 0.0) + coef
        for j, coef in merged.items():
            if coef != 0.0:
                by_col[j].append((rownames[k], coef))
    for j, coef in model.objective.items():
        if coef != 0.0:
            by_col[j].append(("OBJ", coef))

    sense_tag = {"<=": "L", ">=": "G", "==": "E"}
    lines = [f"NAME          {model.name}", "OBJSENSE",
             f"    {'MAXIMIZE' if model.sense == 'max' else 'MINIMIZE'}", "ROWS",
             " N  OBJ"]
    for k, con in enumerate(model.constraints):
        lines.append(f" {sense_tag[con.sense]}  {rownames[k]}")
    lines.append("COLUMNS")
    for j, entries in enumerate(by_col):
        for row, coef in entries:
            lines.append(f"    {colnames[j]}  {row}  {coef!r}")
    lines.append("RHS")
    for k, con in enumerate(model.constraints):
        if con.rhs != 0.0:
            lines.append(f"    RHS  {rownames[k]}  {con.rhs!r}")
    lines.append("BOUNDS")
    for j, v in enumerate(model.variables):
        if v.lo == v.hi:
            lines.append(f" FX BND  {colnames[j]}  {v.lo!r}")
            continue
        if v.lo == -math.inf:
            lines.append(f" MI BND  {colnames[j]}")
        elif v.lo != 0.0:
            lines.append(f" LO BND  {colnames[j]}  {v.lo!r}")
        if math.isfinite(v.hi):
            lines.append(f" UP BND  {colnames[j]}  {v.hi!r}")
    lines.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mps(path: str) -> LPModel:
    """Parse the subset of the interchange format that write_mps emits."""
    sense = "min"
    rows: dict[str, str] = {}
    order: list[str] = []
    cols: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    rhs: dict[str, float] = {}
    bounds: dict[str, list[float]] = {}
    name = "lp"
    section = None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("*"):
                continue
            head = line.split()
            if not line[0].isspace():
                key = head[0].upper()
                if key == "NAME":
                    name = head[1] if len(head) > 1 else "lp"
                    section = None
                elif key in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "RANGES"):
                    section = key
                elif key == "ENDATA":
                    break
                else:
                    raise ValueError(f"unsupported section {key!r}")
                continue
            if section == "OBJSENSE":
                sense = "max" if head[0].upper().startswith("MAX") else "min"
            elif section == "ROWS":
                tag, rname = head[0].upper(), head[1]
                if tag == "N":
                    rows[rname] = "N"
                elif tag in ("L", "G", "E"):
                    rows[rname] = tag
                    order.append(rname)
                else:
                    raise ValueError(f"unsupported row tag {tag!r}")
            elif section == "COLUMNS":
                cname = head[0]
                if cname not in cols:
                    cols[cname] = []
                    col_order.append(cname)
                for rname, val in zip(head[1::2], head[2::2]):
                    cols[cname].append((rname, float(val)))
            elif section == "RHS":
                for rname, val in zip(head[1::2], head[2::2]):
                    rhs[rname] = float(val)
            elif section == "BOUNDS":
                tag, cname = head[0].upper(), head[2]
                if cname not in bounds:
                    bounds[cname] = [0.0, math.inf]
                if tag == "UP":
                    bounds[cname][1] = float(head[3])
                elif tag == "LO":
                    bounds[cname][0] = float(head[3])
                elif tag == "MI":
                    bounds[cname][0] = -math.inf
                elif tag == "FX":
                    bounds[cname] = [float(head[3])] * 2
                else:
                    raise ValueError(f"unsupported bound tag {tag!r}")

    model = LPModel(name=name, sense=sense)
    var_idx = {c: model.add_var(c, *(bounds.get(c, [0.0, math.inf]))) for c in col_order}
    objn = next((r for r, t in rows.items() if t == "N"), None)
    per_row: dict[str, list[tuple[int, float]]] = {r: [] for r in order}
    obj: dict[int, float] = {}
    for cname, entries in cols.items():
        for rname, val in entries:
            if rname == objn:
                obj[var_idx[cname]] = val
            else:
                per_row[rname].append((var_idx[cname], val))
    sense_of = {"L": "<=", "G": ">=", "E": "=="}
    for rname in order:
        model.add_constraint(per_row[rname], sense_of[rows[rname]],
                             rhs.get(rname, 0.0), rname)
    model.set_objective(obj)
    return model
