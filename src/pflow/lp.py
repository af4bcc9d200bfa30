"""Linear programs over flow networks: model container, solver, edge and
routing formulations.

An LPModel is plain arrays: columns and rows are added by index and carry no
names, and solve_lp returns the column values as an array read by index.
A LoadedLP is an LPModel loaded once into HiGHS's form: it re-solves after
`set_rhs` changes right-hand sides, optionally starting from the optimal
basis of an earlier solve, which is how a capacity sweep solves its grid
points. solve_lp is a LoadedLP solved once, cold.
`commodity` adds one demand's split flow (below) with its balance rows; the
edge LP, the routing LP and the purchase module's LP are all built from it,
each under its own bar lists. `balance` writes the flow-conservation terms.
write_mps names column j C<j> and row k R<k>.

The arc formulation is polynomially sized and equivalent to optimizing over
all 2-walks directly. It splits each demand's flow as the paper does: an
unprocessed part w and a processed part g on each arc, plus the volume p
processed at each node, which moves flow from the first part to the second.
Which arcs each part may use is the processing rule `FlowNetwork.barred`
states in the model module, which the walk oracle and both verifiers read
too: flow leaves the source unprocessed, reaches the sink processed, and
never enters the source or leaves the sink. An arc's load is w + g, and the
delivered value of a demand is its source outflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

try:  # the HiGHS binding scipy vendors as highspy's `_core` since 1.15
    from scipy.optimize._highspy._core import (HighsBasis, HighsLp, HighsModelStatus,
                                               HighsStatus, MatrixFormat, _Highs)
except ImportError as exc:
    raise ImportError("pflow needs scipy>=1.15: solve_lp calls the HiGHS binding "
                      "scipy.optimize._highspy._core") from exc

from .model import (SNAP, Demand, EdgeFlowSolution, FlowNetwork, InfeasibleError,
                    ResourceLimitError)

MAXITER = 200_000

_SENSES = ("<=", ">=", "==")

# every pflow LP is small and its max-total-flow LPs are feasible at x = 0:
# presolve costs more than it saves there, and a cold solve runs primal
# simplex (strategy 4) from that feasible all-slack basis; a warm solve from
# an optimal basis whose right-hand sides moved runs dual simplex (1), as that
# basis is still dual feasible. threads stays HiGHS's default
_OPTIONS = {"solver": "simplex", "presolve": "off", "output_flag": False}
_COLD, _WARM = 4, 1


class LPModel:
    """A sparse LP held as arrays: column bounds `lo`/`hi`, rows as COO
    triplets (`rows`, `cols`, `coefs`) with `senses` and `rhs`, and one
    linear objective keyed by column index."""

    def __init__(self, name: str = "lp", sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"bad objective sense {sense!r}")
        self.name = name
        self.sense = sense
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.coefs: list[float] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.objective: dict[int, float] = {}
        self.info: dict = {}  # handles set by the formulation, e.g. column index maps

    def add_var(self, lo: float = 0.0, hi: float = math.inf) -> int:
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.lo) - 1

    def add_constraint(self, coeffs, sense: str, rhs: float) -> int:
        if sense not in _SENSES:
            raise ValueError(f"bad constraint sense {sense!r}")
        k = len(self.rhs)
        for j, coef in coeffs:
            self.rows.append(k)
            self.cols.append(j)
            self.coefs.append(coef)
        self.senses.append(sense)
        self.rhs.append(rhs)
        return k

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self.objective = dict(coeffs)

    @property
    def n_vars(self) -> int:
        return len(self.lo)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None  # column values, indexed like the model's columns
    objective: float
    iterations: int = 0
    basis: HighsBasis | None = None  # HiGHS's final basis of an optimal solve

    def optimal_x(self, what: str, infeasible: str = "") -> np.ndarray:
        """`x` of an optimal solve, or the error this status maps to:
        InfeasibleError (message `infeasible`, by default "{what} infeasible"),
        or ResourceLimitError ("{what} ended {status}") for any other end."""
        if self.status == "infeasible":
            raise InfeasibleError(infeasible or f"{what} infeasible")
        if self.status != "optimal":
            raise ResourceLimitError(f"{what} ended {self.status}")
        return self.x


class LoadedLP:
    """An LPModel in the form HiGHS takes, built once and solved on demand.

    HiGHS gets the rows in model order, each with the bounds its sense
    gives, and a minimized objective. Columns fixed at lo = hi = 0 (the
    edge LP's barred arcs, for one) stay out of it; `x` has them back at 0.
    `set_rhs` changes one model row's right-hand side in place, so LPs that
    differ only there share one build. Every `solve` runs a fresh HiGHS
    instance, started from `basis` when one is given, so its result depends
    only on the loaded LP and that basis.

    Raises ValueError on a non-finite objective or matrix coefficient or
    rhs, or a NaN column bound.
    """

    def __init__(self, model: LPModel):
        n = model.n_vars
        rhs = np.asarray(model.rhs, dtype=float)
        coefs = np.asarray(model.coefs, dtype=float)
        lo = np.asarray(model.lo, dtype=float)
        hi = np.asarray(model.hi, dtype=float)
        c = np.zeros(n)
        for j, coef in model.objective.items():
            c[j] = coef
        for what, vals in (("objective coefficient", c), ("matrix coefficient", coefs),
                           ("rhs", rhs)):
            if not np.isfinite(vals).all():
                raise ValueError(f"LP {model.name!r} has a non-finite {what}")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError(f"LP {model.name!r} has a NaN column bound")
        self.name = model.name
        self.sense = model.sense
        self._n = n
        self._senses = list(model.senses)
        # the binding copies a list into HiGHS's vectors faster than a numpy
        # array, and hands the vectors back as copies, so the row bounds are
        # kept here as lists and passed again whenever one changes
        bounds = list(zip(model.senses, rhs.tolist()))
        self._lower = [-math.inf if s == "<=" else r for s, r in bounds]
        self._upper = [math.inf if s == ">=" else r for s, r in bounds]
        self._cols = np.flatnonzero((lo != 0.0) | (hi != 0.0))  # the columns HiGHS gets
        self._lp = None
        if self._cols.size == 0:
            return
        if model.sense == "max":
            c = -c

        # model column j is HiGHS column new[j]; entries in dropped columns go
        new = np.full(n, -1, dtype=np.intp)
        new[self._cols] = np.arange(self._cols.size)
        cols = new[np.asarray(model.cols, dtype=np.intp)]
        kept = cols >= 0
        A = csc_matrix((coefs[kept], (np.asarray(model.rows, dtype=np.intp)[kept],
                                      cols[kept])),
                       shape=(model.n_rows, self._cols.size))

        lp = HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = self._cols.size
        lp.num_row_ = lp.a_matrix_.num_row_ = model.n_rows
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.start_ = A.indptr.tolist()
        lp.a_matrix_.index_ = A.indices.tolist()
        lp.a_matrix_.value_ = A.data.tolist()
        lp.col_cost_ = c[self._cols].tolist()
        lp.col_lower_ = lo[self._cols].tolist()
        lp.col_upper_ = hi[self._cols].tolist()
        lp.row_lower_ = self._lower
        lp.row_upper_ = self._upper
        self._lp = lp

    def set_rhs(self, k: int, value: float) -> None:
        """Make `value` the right-hand side of model row k."""
        if not math.isfinite(value):
            raise ValueError(f"LP {self.name!r} has a non-finite rhs")
        sense = self._senses[k]
        if sense != "<=":
            self._lower[k] = value
            if self._lp is not None:
                self._lp.row_lower_ = self._lower
        if sense != ">=":
            self._upper[k] = value
            if self._lp is not None:
                self._lp.row_upper_ = self._upper

    def solve(self, basis: HighsBasis | None = None) -> LPResult:
        """Solve without presolve: cold by primal simplex, or by dual simplex
        from `basis` (a basis of an earlier optimal solve of this LP). Raises
        ResourceLimitError if the iteration budget is exhausted or HiGHS ends
        in any other state.
        """
        if self._lp is None:
            # every row reads 0, so the model is feasible iff each row holds at 0
            if all(lo <= 0.0 <= hi for lo, hi in zip(self._lower, self._upper)):
                return LPResult("optimal", np.zeros(self._n), 0.0, 0)
            return LPResult("infeasible", None, math.nan, 0)
        highs = _Highs()
        for key, val in _OPTIONS.items():
            highs.setOptionValue(key, val)
        highs.setOptionValue("simplex_strategy", _COLD if basis is None else _WARM)
        highs.setOptionValue("simplex_iteration_limit", MAXITER)
        if highs.passModel(self._lp) == HighsStatus.kError:
            # a model HiGHS cannot load, e.g. with a lower bound of inf, has no
            # feasible point
            return LPResult("infeasible", None, math.nan, 0)
        if basis is not None and highs.setBasis(basis) == HighsStatus.kError:
            raise ValueError(f"basis does not fit LP {self.name!r}")
        highs.run()
        status = highs.getModelStatus()
        info = highs.getInfo()
        nit = int(info.simplex_iteration_count)
        if status == HighsModelStatus.kOptimal:
            obj = float(info.objective_function_value)
            x = np.zeros(self._n)
            x[self._cols] = highs.getSolution().col_value
            return LPResult("optimal", x, -obj if self.sense == "max" else obj, nit,
                            highs.getBasis())
        if status in (HighsModelStatus.kIterationLimit, HighsModelStatus.kTimeLimit):
            raise ResourceLimitError(f"simplex iteration limit {MAXITER} exhausted")
        if status == HighsModelStatus.kInfeasible:
            return LPResult("infeasible", None, math.nan, nit)
        if status == HighsModelStatus.kUnbounded:
            return LPResult("unbounded", None,
                            math.inf if self.sense == "max" else -math.inf, nit)
        raise ResourceLimitError(
            f"solver failed: HiGHS status {highs.modelStatusToString(status)!r}")


def solve_lp(model: LPModel) -> LPResult:
    """Solve once, cold, by HiGHS's primal simplex without presolve;
    desk-scale models only.

    Every LP in pflow reaches HiGHS through here or a LoadedLP, whose
    checks and errors it shares.
    """
    return LoadedLP(model).solve()


def balance(net: FlowNetwork, var, v: str, sign: float = 1.0) -> list[tuple[int, float]]:
    """Inflow minus outflow at node v, times `sign`, of the per-arc columns
    `var[a]`: the terms of a conservation row."""
    return ([(var[a], sign) for a in net.in_arcs[v]]
            + [(var[a], -sign) for a in net.out_arcs[v]])


def commodity(m: LPModel, net: FlowNetwork, d: Demand, wbar, gbar,
              p_hi: dict[str, float]) -> tuple[list[int], list[int], dict[str, int]]:
    """Add one demand's processed flow to `m`, split as in the paper.

    Columns: per arc a, w (unprocessed) then g (processed), each fixed at 0
    where its bar list `wbar` / `gbar` bars the arc; then per node v of
    `p_hi`, in its order, the volume p processed at v, at most p_hi[v].
    Rows, node by node: at every node but the source, w's inflow minus
    outflow is p there; at every node but the sink, g's outflow minus
    inflow is p there (0 at a node without p). A row at a node without p
    whose arcs are all barred to its part only says 0 = 0 and is left out.
    Returns the w and g columns by arc index and the p columns by node.
    """
    w: list[int] = []
    g: list[int] = []
    for a in range(net.n_arcs):
        w.append(m.add_var(hi=0.0 if wbar[a] else math.inf))
        g.append(m.add_var(hi=0.0 if gbar[a] else math.inf))
    p = {v: m.add_var(hi=hi) for v, hi in p_hi.items()}
    for v in net.nodes:
        at = [(p[v], 1.0)] if v in p else []
        arcs = net.in_arcs[v] + net.out_arcs[v]
        if v != d.source and (at or not all(wbar[a] for a in arcs)):
            m.add_constraint(at + balance(net, w, v, -1.0), "==", 0.0)
        if v != d.sink and (at or not all(gbar[a] for a in arcs)):
            m.add_constraint(at + balance(net, g, v), "==", 0.0)
    return w, g, p


def build_routing_lp(net: FlowNetwork, demands: list[Demand],
                     group_cap) -> LPModel:
    """Plain multicommodity max flow, blind to processing.

    Each demand is one `commodity` under the leg rule `FlowNetwork.legs`
    with v at its sink: w runs from the source to the sink, where all of it
    is processed on arrival, and g is barred everywhere. p at the sink, what
    the demand routes, is at most its amount. Each bandwidth group g carries
    at most group_cap[g] of w over all demands, and the objective is Σ p.
    `info["w"][i]` holds demand i's w columns by arc and `info["p"][i]` its
    p column.
    """
    m = LPModel("route", sense="max")
    wvar: list[list[int]] = []
    pvar: list[int] = []
    for d in demands:
        w, _, p = commodity(m, net, d, *net.legs(d.source, d.sink, d.sink),
                            {d.sink: d.amount})
        wvar.append(w)
        pvar.append(p[d.sink])
    for g, arcs in enumerate(net.groups):
        m.add_constraint([(w[a], 1.0) for w in wvar for a in arcs], "<=", group_cap[g])
    m.set_objective(dict.fromkeys(pvar, 1.0))
    m.info = {"w": wvar, "p": pvar}
    return m


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

    Each demand is one `commodity`: per arc, w (unprocessed flow) and g
    (processed flow), each fixed at 0 on the arcs `FlowNetwork.barred` bars
    to it; per non-source node, p (volume processed there), with
    p = w_in - w_out at every non-source node and g_out - g_in = p away from
    both endpoints. An arc's
    total flow w + g draws on its shared bandwidth, Σp on node capacity, and
    the source outflow, all of it w, is what a demand delivers: capped by a
    finite amount, or exactly that amount under the congestion objectives,
    where a zero-capacity edge carries nothing and a zero-capacity node
    processes nothing.
    """
    kind = objective.kind
    if kind not in ("max-total-flow", "min-max-congestion", "min-weighted-congestion"):
        raise ValueError(f"unknown objective kind {kind!r}")
    congestion = kind != "max-total-flow"
    if congestion and any(not math.isfinite(d.amount) for d in demands):
        raise ValueError("congestion objectives need finite demand amounts")

    m = LPModel(name=f"edge-{kind}", sense="min" if congestion else "max")
    wvar: list[list[int]] = []
    gvar: list[list[int]] = []
    pvar: list[dict[str, int]] = []
    shut = [congestion and net.group_capacity[arc.group] <= 0 for arc in net.arcs]
    net_out = []
    for d in demands:
        wbar, gbar = net.barred(d.source, d.sink)
        p_hi = {v: 0.0 if congestion and net.node_capacity[v] <= 0 else math.inf
                for v in net.nodes if v != d.source}
        w, g, p = commodity(m, net, d, [b or s for b, s in zip(wbar, shut)],
                            [b or s for b, s in zip(gbar, shut)], p_hi)
        wvar.append(w)
        gvar.append(g)
        pvar.append(p)
        out_i = [(w[a], 1.0) for a in net.out_arcs[d.source]]
        if congestion:
            m.add_constraint(out_i, "==", d.amount)
        elif math.isfinite(d.amount) and out_i:
            m.add_constraint(out_i, "<=", d.amount)
        net_out += out_i

    theta = None
    if kind == "min-max-congestion":
        theta = m.add_var()
    ew = objective.edge_weights or {}
    nw = objective.node_weights or {}
    weighted_obj: dict[int, float] = {}

    for g, cap in enumerate(net.group_capacity):
        coeffs = [(part[a], 1.0) for a in net.groups[g] for part in wvar + gvar]
        if not coeffs:
            continue
        if kind == "max-total-flow":
            m.add_constraint(coeffs, "<=", cap)
        elif cap > 0:
            if theta is not None:
                m.add_constraint(coeffs + [(theta, -cap)], "<=", 0.0)
            else:
                for j, c in coeffs:
                    weighted_obj[j] = weighted_obj.get(j, 0.0) + ew.get(g, 1.0) * c / cap
    node_rows: dict[str, int] = {}
    for v in net.nodes:
        cap = net.node_capacity[v]
        coeffs = [(p[v], 1.0) for p in pvar if v in p]
        if not coeffs:
            continue
        if kind == "max-total-flow":
            node_rows[v] = m.add_constraint(coeffs, "<=", cap)
        elif cap > 0:
            if theta is not None:
                m.add_constraint(coeffs + [(theta, -cap)], "<=", 0.0)
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

    # node_rows: the row whose rhs is node v's capacity, under max-total-flow
    # (a node that only sources demands processes nothing and has no row)
    m.info = {"w": wvar, "g": gvar, "p": pvar, "theta": theta, "kind": kind,
              "node_rows": node_rows}
    return m


def _sparse(values: dict) -> dict:
    return {key: x for key, x in values.items() if x > SNAP}


def extract_edge_solution(model: LPModel, x: np.ndarray,
                          net: FlowNetwork, demands: list[Demand]) -> EdgeFlowSolution:
    """Pull per-demand flows out of a solved edge LP, snapping float dust to zero.

    The solution carries each arc's total flow w + g next to its unprocessed
    part w, so flow >= unprocessed holds by construction. A congestion
    solution reports its peak load/capacity ratio as meta["congestion"]: the
    LP's theta under min-max, the ratio of the extracted loads under
    min-weighted.
    """
    if not model.info or "g" not in model.info:
        raise ValueError("model was not built by build_edge_lp")
    vals = [max(0.0, val) for val in x.tolist()]
    info = model.info
    flow, unproc, proc = [], [], []
    for i in range(len(demands)):
        w = [vals[j] for j in info["w"][i]]
        g = [vals[j] for j in info["g"][i]]
        flow.append(_sparse({a: w[a] + g[a] for a in range(len(w))}))
        unproc.append(_sparse(dict(enumerate(w))))
        proc.append(_sparse({v: vals[j] for v, j in info["p"][i].items()}))
    sol = EdgeFlowSolution(flow, unproc, proc, 0.0,
                           meta={"algorithm": "lp", "objective_kind": info["kind"]})
    sol.objective = sum(sol.delivered(net, demands, i) for i in range(len(demands)))
    theta = info.get("theta")
    if theta is not None:
        sol.meta["congestion"] = float(x[theta])
    elif info["kind"] == "min-weighted-congestion":
        sol.meta["congestion"] = _peak_ratio(net, sol)
    return sol


def _peak_ratio(net: FlowNetwork, sol: EdgeFlowSolution) -> float:
    """The largest load/capacity ratio over the resources with capacity;
    a congestion LP puts no load on the others."""
    caps = net.group_capacity
    ratios = [load / caps[g] for g, load in sol.group_loads(net).items() if caps[g] > 0]
    ratios += [load / net.node_capacity[v] for v, load in sol.node_loads().items()
               if net.node_capacity[v] > 0]
    return max(ratios, default=0.0)


def solve_edge_lp(net: FlowNetwork, demands: list[Demand],
                  objective: Objective = Objective()) -> tuple[EdgeFlowSolution, LPResult]:
    """Build, solve cold, and extract in one go."""
    model = build_edge_lp(net, demands, objective)
    res = solve_lp(model)
    return edge_lp_solution(model, res, net, demands), res


def edge_lp_solution(model: LPModel, res: LPResult, net: FlowNetwork,
                     demands: list[Demand]) -> EdgeFlowSolution:
    """The edge flows of a solved edge LP, or the error its status maps to
    (`LPResult.optimal_x`)."""
    x = res.optimal_x("edge LP", "edge LP infeasible (demands cannot all be met)")
    sol = extract_edge_solution(model, x, net, demands)
    sol.meta["lp_objective"] = res.objective
    sol.meta["lp_iterations"] = res.iterations
    return sol


def write_mps(model: LPModel, path: str) -> None:
    """Serialize to the row/column interchange format most LP tools accept.

    Column j is named C<j> and row k R<k>.
    """
    A = csc_matrix((model.coefs, (model.rows, model.cols)),
                   shape=(model.n_rows, model.n_vars))
    sense_tag = {"<=": "L", ">=": "G", "==": "E"}
    lines = [f"NAME          {model.name}", "OBJSENSE",
             f"    {'MAXIMIZE' if model.sense == 'max' else 'MINIMIZE'}", "ROWS",
             " N  OBJ"]
    lines += [f" {sense_tag[s]}  R{k}" for k, s in enumerate(model.senses)]
    lines.append("COLUMNS")
    for j in range(model.n_vars):
        span = slice(A.indptr[j], A.indptr[j + 1])
        entries = [(f"R{k}", coef) for k, coef in
                   zip(A.indices[span].tolist(), A.data[span].tolist())]
        entries.append(("OBJ", model.objective.get(j, 0.0)))
        lines += [f"    C{j}  {row}  {coef!r}" for row, coef in entries if coef != 0.0]
    lines.append("RHS")
    lines += [f"    RHS  R{k}  {rhs!r}" for k, rhs in enumerate(model.rhs) if rhs != 0.0]
    lines.append("BOUNDS")
    for j, (lo, hi) in enumerate(zip(model.lo, model.hi)):
        if lo == hi:
            lines.append(f" FX BND  C{j}  {lo!r}")
            continue
        if lo == -math.inf:
            lines.append(f" MI BND  C{j}")
        elif lo != 0.0:
            lines.append(f" LO BND  C{j}  {lo!r}")
        if math.isfinite(hi):
            lines.append(f" UP BND  C{j}  {hi!r}")
    lines.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
