"""Linear programs over flow networks: model container, solver, the walk
master and the edge formulation.

An LPModel is plain arrays, its rows in the row-wise form HiGHS reads:
columns and rows are added by index and carry no names, and solve_lp hands
the arrays to HiGHS as built, solves by simplex (dual from a primal
infeasible start, primal from a feasible one) and returns the column
values as an array read by index. `commodities` adds the split flow
(below) of many demands in one batch of array operations, a column only
where it can carry flow, and returns their balance rows and each demand's
column layout; the edge LP and the purchase module's LP are both built
from it, each under its own bar arrays, and each writes all of its rows
in one `LPModel.add_rows` call, unchecked. solve_lp and write_mps check
every row of a model once (`LPModel.check`) before HiGHS or the file sees
it. write_mps names column j C<j> and row k R<k>. HiGHS objects are
pooled: a process holds one per concurrent solve, which solve_lp and the
walk master take (`_highs`), clear of the last model, and give back
(`_release`), so that options are set once per object, not once per solve.

The arc formulation is polynomially sized and equivalent to optimizing over
all 2-walks directly. It splits each demand's flow as the paper does: an
unprocessed part w and a processed part g on each arc, plus the volume p
processed at each node, which moves flow from the first part to the second.
Which arcs each part may use is the processing rule `FlowNetwork.bars`
states in the model module, which the pricing graph and both verifiers
read too: flow leaves the source unprocessed, reaches the sink processed,
and never enters the source or leaves the sink. An arc's load is w + g,
and the delivered value of a demand is its source outflow.

Every objective is solved over the 2-walks instead (`solve_walk_master`).
Max total flow and min-max congestion are column generation: a master LP
over the walks found so far, priced under its row duals, so that only
walks that can improve it are ever built; min-weighted congestion is one
pricing call. A max-total-flow master that starts without columns first
takes the walks of a few rounds of Garg and Könemann's multiplicative
weights (`_seed_columns`), the congestion-aware heuristic of the paper's
approximation algorithm, priced without HiGHS and charged by the helper
MWU's rounds share (`charge_walks`); from there its rounds run as
before. The master is an object (`WalkMaster`) that owns its HiGHS model,
columns and pricing graph: `solve_walk_master` solves one once and
releases it, and a capacity sweep holds one across each pass over its
grid, rewriting the node rows at each point and re-solving from the basis
the last point left, since a walk stays valid when only node capacities
change. Pricing is one scipy Dijkstra run over a block-diagonal graph
(`_WalkGraph`), one two-layer copy of the network per demand, whose
weights are rewritten in place each round. The graph is built once per
network and
list of (source, sink) pairs, and every solver that prices (MWU, the
master, its seed) holds it for the whole solve and prices each round on it
(`_WalkGraph.price`). The graph also counts
each column's resource uses once (`_WalkGraph.uses`), which the master's
rows, the charge of each multiplicative-weights round and the congestion
ratio then read. A master's columns are walks
already: `master_walks` hands them out through `WalkFold`, the one fold
from (column, flow) pairs to walk entries, which MWU and naive use too;
only `solve_edge_lp` sums them into edge flows, as the arc formulation
would. The arc formulation (`build_edge_lp`) serves MPS export and the
tests' reference.
The same master over plain source->sink paths, one layer per demand, is
the processing-blind multicommodity max flow that the naive baseline and
the purchase greedy route by.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

try:  # the HiGHS binding scipy vendors as highspy's `_core` since 1.15
    from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsStatus,
                                               MatrixFormat, ObjSense, _Highs)
except ImportError as exc:
    raise ImportError("pflow needs scipy>=1.15: solve_lp calls the HiGHS binding "
                      "scipy.optimize._highspy._core") from exc

from .model import (SNAP, Demand, EdgeFlowSolution, FlowNetwork, InfeasibleError,
                    ResourceLimitError, WalkEntry, WalkFlowSolution,
                    reject_degenerate_demands)

MAXITER = 200_000

# every pflow LP is small, so presolve costs more than it saves. HiGHS
# chooses the simplex per solve (strategy 0): primal from a primal feasible
# basis, dual otherwise. Max-total-flow LPs are feasible at x = 0, so they
# run primal from the all-slack basis, and the walk master stays primal
# feasible as columns arrive. The min-cost purchase relaxation violates
# every demand row at x = 0 with no cost below 0, a dual feasible start,
# and runs dual. threads stays HiGHS's default
_OPTIONS = {"solver": "simplex", "presolve": "off", "output_flag": False,
            "simplex_strategy": 0}
_ROWWISE, _MINIMIZE = int(MatrixFormat.kRowwise), int(ObjSense.kMinimize)
_STATUS = {HighsModelStatus.kOptimal: "optimal",
           HighsModelStatus.kInfeasible: "infeasible",
           HighsModelStatus.kUnbounded: "unbounded"}


# the rows of a model without any: starts, cols, coefs, senses, rhs, read-only
# since every new model shares them until add_rows replaces them
_NO_ROWS = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
            np.zeros(0, dtype="<U2"), np.zeros(0))
for _rows in _NO_ROWS:
    _rows.flags.writeable = False


class LPModel:
    """A sparse LP held as arrays: column bounds `lo`/`hi` (lists, one
    entry per column), rows in HiGHS's row-wise form (row k's entries are
    `cols` and `coefs` at positions starts[k] to starts[k+1], each column
    at most once) with `senses` and `rhs`, all numpy arrays, and one linear
    objective keyed by column index.

    Rows go in only through `add_rows`, many at once and as built: the edge
    LP and the purchase LP each write all of theirs in one call. Nothing is
    checked there; `check` validates every row at once, and `solve_lp` and
    `write_mps` run it before HiGHS or the file sees the model."""

    def __init__(self, name: str = "lp", sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"bad objective sense {sense!r}")
        self.name = name
        self.sense = sense
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.starts, self.cols, self.coefs, self.senses, self.rhs = _NO_ROWS
        self.objective: dict[int, float] = {}
        self.info: dict = {}  # handles set by the formulation, e.g. column index maps

    def add_var(self, lo: float = 0.0, hi: float = math.inf) -> int:
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.lo) - 1

    def add_rows(self, cols, coefs, ends, senses, rhs) -> None:
        """Append rows in bulk, as built: row k holds the entries of `cols`
        and `coefs` before position ends[k] and from ends[k-1] (0 for the
        first row) on, with senses[k] and rhs[k]. Nothing is summed or
        checked here; `check` does that for the whole model."""
        rows = (np.asarray(ends, dtype=np.int64) + len(self.cols),
                np.asarray(cols, dtype=np.int64), np.asarray(coefs, dtype=float),
                np.asarray(senses, dtype="<U2"), np.asarray(rhs, dtype=float))
        if len(self.rhs):  # after the rows already there
            rows = [np.concatenate(pair) for pair in zip(
                (self.starts[1:], self.cols, self.coefs, self.senses, self.rhs), rows)]
        self.starts = np.concatenate((_NO_ROWS[0], rows[0]))
        self.cols, self.coefs, self.senses, self.rhs = rows[1:]

    def set_objective(self, coeffs: dict[int, float]) -> None:
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= len(self.lo)):
            raise ValueError(f"LP {self.name!r}: the objective names a column outside "
                             f"[0, {len(self.lo)})")
        self.objective = dict(coeffs)

    def check(self) -> tuple[np.ndarray, np.ndarray]:
        """Raise ValueError unless the rows are well formed: every sense is
        known, the row-wise arrays agree in length, and each row names
        columns in [0, n_vars), none of them twice. Returns each row's lower
        and upper bound, as its sense and rhs give them."""
        le, ge = self.senses == "<=", self.senses == ">="
        if not (le | ge | (self.senses == "==")).all():
            raise ValueError(f"LP {self.name!r} has a bad constraint sense")
        counts = self.starts[1:] - self.starts[:-1]
        if not (len(self.rhs) == len(self.senses) == len(counts)
                and self.starts[0] == 0 and self.starts[-1] == len(self.cols)
                == len(self.coefs) and not (counts < 0).any()):
            raise ValueError(f"LP {self.name!r} has malformed rows")
        if len(self.cols):
            n = self.n_vars
            if self.cols.min() < 0 or self.cols.max() >= n:
                raise ValueError(f"LP {self.name!r}: a row names a column outside [0, {n})")
            keys = np.arange(0, n * len(counts), n).repeat(counts) + self.cols
            keys.sort()
            if (keys[1:] == keys[:-1]).any():
                raise ValueError(f"LP {self.name!r}: a row names a column twice")
        return np.where(le, -math.inf, self.rhs), np.where(ge, math.inf, self.rhs)

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

    def optimal_x(self, what: str, infeasible: str = "") -> np.ndarray:
        """`x` of an optimal solve, or the error this status maps to:
        InfeasibleError (message `infeasible`, by default "{what} infeasible"),
        or ResourceLimitError ("{what} ended {status}") for any other end."""
        if self.status == "infeasible":
            raise InfeasibleError(infeasible or f"{what} infeasible")
        if self.status != "optimal":
            raise ResourceLimitError(f"{what} ended {self.status}")
        return self.x


# HiGHS objects that hold _OPTIONS and await their next model: `_highs`
# takes one and `_release` gives it back, so a process creates one per
# concurrent solve, not one per solve. A list's pop and append are atomic
_POOL: list[_Highs] = []


def _highs() -> _Highs:
    """A HiGHS object with _OPTIONS and no model: a pooled one, cleared
    (`clearModel` drops the model, its basis and solution, and keeps the
    options), or a new one."""
    try:
        highs = _POOL.pop()
    except IndexError:
        highs = _Highs()
        for key, val in _OPTIONS.items():
            highs.setOptionValue(key, val)
        return highs
    highs.clearModel()
    return highs


def _release(highs: _Highs) -> None:
    """Pool `highs` for the next `_highs`; only a plain `_Highs` is kept, so
    a stand-in a test puts in `_highs`' place never is."""
    if type(highs) is _Highs:
        _POOL.append(highs)


def _run(highs: _Highs, limit: int) -> tuple[str, int, float]:
    """Run HiGHS with at most `limit` simplex iterations; its status as
    LPResult names it, the iterations taken and the objective value of
    its last solution (minimized). Raises ResourceLimitError once the limit
    is reached, or if HiGHS ends in any other state."""
    highs.setOptionValue("simplex_iteration_limit", limit)
    highs.run()
    status = highs.getModelStatus()
    if status in (HighsModelStatus.kIterationLimit, HighsModelStatus.kTimeLimit):
        raise ResourceLimitError(f"simplex iteration limit {MAXITER} exhausted")
    if status not in _STATUS:
        raise ResourceLimitError(
            f"solver failed: HiGHS status {highs.modelStatusToString(status)!r}")
    # two fields read by name: getInfo() would copy every one
    _, nit = highs.getInfoValue("simplex_iteration_count")
    _, obj = highs.getInfoValue("objective_function_value")
    return _STATUS[status], int(nit), float(obj)


def solve_lp(model: LPModel) -> LPResult:
    """Solve once by HiGHS's simplex without presolve, from the all-slack
    basis: primal if that basis is feasible, dual if not; desk-scale models
    only.

    HiGHS gets the model as built: its columns, and its rows in the
    row-wise form LPModel keeps, each with the bounds its sense gives, and
    a minimized objective. Raises ValueError, before HiGHS sees the model,
    on rows `LPModel.check` rejects (a bad sense, or a column outside the
    model or named twice in one row), a non-finite objective or matrix
    coefficient or rhs, or a NaN column bound, and ResourceLimitError if
    the iteration budget is exhausted or HiGHS ends in any other state.
    """
    lower, upper = model.check()
    n, flip = model.n_vars, model.sense == "max"
    # HiGHS minimizes: a maximized objective goes in negated, every entry
    cost = np.empty(n)
    cost.fill(-0.0 if flip else 0.0)
    cost[list(model.objective)] = [-c if flip else c for c in model.objective.values()]
    bounds = np.array((model.lo, model.hi), dtype=float)
    if not np.isfinite(np.concatenate((cost, model.coefs, model.rhs))).all():
        for what, vals in (("objective coefficient", cost), ("matrix coefficient", model.coefs),
                           ("rhs", model.rhs)):
            if not np.isfinite(vals).all():
                raise ValueError(f"LP {model.name!r} has a non-finite {what}")
    if np.isnan(bounds).any():
        raise ValueError(f"LP {model.name!r} has a NaN column bound")
    if n == 0:
        # every row reads 0, so the model is feasible iff each row holds at 0
        if ((lower <= 0.0) & (0.0 <= upper)).all():
            return LPResult("optimal", np.zeros(0), 0.0, 0)
        return LPResult("infeasible", None, math.nan, 0)

    highs = _highs()
    try:
        # the model's own arrays, which pybind hands on without a
        # conversion per entry, and no integer columns
        if highs.passModel(n, model.n_rows, len(model.cols), _ROWWISE, _MINIMIZE, 0.0, cost,
                           bounds[0], bounds[1], lower, upper, model.starts, model.cols,
                           model.coefs, np.zeros(n, dtype=np.int32)) == HighsStatus.kError:
            # a model HiGHS cannot load, e.g. with a lower bound of inf, has
            # no feasible point
            return LPResult("infeasible", None, math.nan, 0)
        status, nit, obj = _run(highs, MAXITER)
        if status == "optimal":
            x = np.asarray(highs.getSolution().col_value)
            return LPResult("optimal", x, -obj if flip else obj, nit)
    finally:
        _release(highs)
    if status == "infeasible":
        return LPResult("infeasible", None, math.nan, nit)
    return LPResult("unbounded", None, math.inf if flip else -math.inf, nit)


def _balance_slots(net: FlowNetwork) -> tuple[np.ndarray, ...]:
    """Every entry a demand's balance rows may hold, in the order they are
    written: node by node, the w row then the g row, each listing p, then
    the in-arcs, then the out-arcs, by arc index; an arc u->u is in none.
    Per entry, its slot in `commodities`' column layout (w of arc a at 2a,
    g at 2a + 1, p at node v at 2 n_arcs + v) and its coefficient, and the
    node of its row if that is a w row (else -1), and if a g row; and where
    each row starts (w's row at v is row 2v, g's 2v + 1). Built once per
    topology, in the network's cache."""
    slots = net._cache.get("balance slots")
    if slots is not None:
        return slots
    first_p = 2 * net.n_arcs
    loops = {a for a, arc in enumerate(net.arcs) if arc.tail == arc.head}
    slot, coef, w_at, g_at, starts = [], [], [], [], []
    for v, node in enumerate(net.nodes):
        ins, outs = net.in_arcs[node], net.out_arcs[node]
        if loops:
            ins, outs = [a for a in ins if a not in loops], [a for a in outs if a not in loops]
        size = 1 + len(ins) + len(outs)
        starts += [len(slot), len(slot) + size]
        w = [2 * a for a in (*ins, *outs)]  # the arcs' w slots; each g slot is next
        slot += [first_p + v, *w, first_p + v, *[j + 1 for j in w]]
        # w: p - inflow + outflow == 0; g: p + inflow - outflow == 0
        coef += [1.0, *[-1.0] * len(ins), *[1.0] * len(outs),
                 1.0, *[1.0] * len(ins), *[-1.0] * len(outs)]
        w_at += [v] * size + [-1] * size
        g_at += [-1] * size + [v] * size
    slots = tuple(np.array(x) for x in (slot, coef, w_at, g_at, starts))
    net._cache["balance slots"] = slots
    return slots


def commodities(m: LPModel, net: FlowNetwork, ends: np.ndarray, bars: np.ndarray,
                p_at: np.ndarray, outflow: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Add the processed flow of k demands to `m`, each split as in the
    paper, in one batch: demand b runs from node index ends[b, 0] to
    ends[b, 1] under the bar arrays bars[b, 0] (w's) and bars[b, 1] (g's),
    in the form of `FlowNetwork.bars`.

    Columns, demand by demand: per arc a, w (unprocessed) then g
    (processed), each only where its bar array leaves the arc open; then
    per node v where p_at[b, v], in node order, the volume p processed at
    v. Rows, demand by demand and node by node: at every node but the
    source, w's inflow minus outflow is p there; at every node but the
    sink, g's outflow minus inflow is p there (0 at a node without p). A
    row lists p, then the in-arcs, then the out-arcs (`_balance_slots`),
    and is written exactly when it has a term. Where outflow[b], demand b's
    rows end with one more: its w columns on the arcs out of its source.

    Only the columns go into the model. Returns `col`, the column of each
    demand's layout slot (w of arc a at 2a, g at 2a + 1, p at node v at
    2 n_arcs + v; -1 where it has none), and the rows for the caller to
    write among its own: their entries' columns and coefficients, in
    order, and `count`, per demand and row slot (2v: w's row at v, 2v + 1:
    g's, 2 n_nodes: the outflow row), how many entries that row holds.
    """
    n, n_arcs, k = net.n_nodes, net.n_arcs, len(ends)
    has = np.empty((k, 2 * n_arcs + n), dtype=bool)
    np.logical_not(bars, out=has[:, :2 * n_arcs].reshape(k, n_arcs, 2).transpose(0, 2, 1))
    has[:, 2 * n_arcs:] = p_at
    opened = has.ravel().nonzero()[0]
    col = np.empty(has.shape, dtype=np.int64)
    col.fill(-1)
    col.reshape(-1)[opened] = np.arange(m.n_vars, m.n_vars + len(opened))
    m.lo += [0.0] * len(opened)
    m.hi += [math.inf] * len(opened)

    slot, coef, w_at, g_at, starts = _balance_slots(net)
    # no w row at the source, no g row at the sink
    live = has[:, slot] & (w_at != ends[:, :1]) & (g_at != ends[:, 1:])
    count = np.add.reduceat(live, starts, axis=1, dtype=np.int64) if len(slot) else \
        np.zeros((k, 0), dtype=np.int64)
    if outflow is not None:
        out = ~bars[:, 0] & (net.arc_ends[0] == ends[:, :1]) & outflow[:, None]
        slot = np.concatenate((slot, 2 * np.arange(n_arcs)))
        coef = np.concatenate((coef, np.ones(n_arcs)))
        live = np.concatenate((live, out), axis=1)
        count = np.concatenate((count, out.sum(axis=1, keepdims=True)), axis=1)
    b, j = live.nonzero()
    return col, col[b, slot[j]], coef[j], count


@dataclass(frozen=True)
class Objective:
    """What `solve_edge_lp` optimizes over 2-walks, and `build_edge_lp` writes.

    max-total-flow: maximize total delivered processed flow under hard caps.
    min-max-congestion: demands become hard requirements, capacities soften
    into load/capacity ratios, and the largest ratio is minimized.
    min-weighted-congestion: same, minimizing a weighted sum of the ratios.
    Weights are keyed by bandwidth group index / node id; missing means 1.
    Each must be finite and non-negative and name a group or node.
    """

    kind: str = "max-total-flow"
    edge_weights: dict | None = None
    node_weights: dict | None = None


def _check_objective(net: FlowNetwork, demands: list[Demand], objective: Objective) -> str:
    """The objective's kind; ValueError on an unknown kind, an uncapped
    demand under congestion, or a weight that `Objective` does not allow,
    and StructuralError on a demand from a node to itself."""
    reject_degenerate_demands(demands)
    kind = objective.kind
    if kind not in ("max-total-flow", "min-max-congestion", "min-weighted-congestion"):
        raise ValueError(f"unknown objective kind {kind!r}")
    if kind != "max-total-flow" and any(not math.isfinite(d.amount) for d in demands):
        raise ValueError("congestion objectives need finite demand amounts")
    for noun, weights, keys in (("bandwidth group", objective.edge_weights, range(net.edge_count)),
                                ("node", objective.node_weights, net.node_capacity)):
        for key, weight in (weights or {}).items():
            if key not in keys:
                raise ValueError(f"weight key {key!r} names no {noun}")
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"weight {weight!r} of {noun} {key!r} is negative or not finite")
    return kind


def _capacities(net: FlowNetwork, paths: bool = False) -> list[float]:
    """The capacity of each resource, in the order of the master's rows
    after the demands': the bandwidth groups', then, but for a path master,
    the nodes'. Every solver and the edge LP read capacities through it."""
    return list(net.group_capacity) + ([] if paths else [net.node_capacity[v] for v in net.nodes])


def build_edge_lp(net: FlowNetwork, demands: list[Demand],
                  objective: Objective = Objective()) -> LPModel:
    """Arc formulation of the processed-flow problem, split as in the paper,
    once `_check_objective` passes `objective`: what `--emit-lp` writes, and
    the tests' reference for `solve_walk_master`.

    The demands are `commodities` under `FlowNetwork.bars`, with p at
    every non-source node, each demand's balance rows followed by its
    source outflow row: the amount it delivers, at most a finite amount, or
    exactly that amount under the congestion objectives, where an edge or
    node of capacity 0 gets no column. Then an arc's load w + g draws on its
    group's bandwidth and Σp on node capacity, one row per group and per
    node, each listing its columns arc by arc (w of every demand, then g)
    or demand by demand. Rows with no column are left out, but for a
    congestion objective's outflow rows. `info["col"][i]` is demand i's
    column layout in `commodities`' form.
    """
    kind = _check_objective(net, demands, objective)
    congestion = kind != "max-total-flow"
    m = LPModel(name=f"edge-{kind}", sense="min" if congestion else "max")
    n, n_arcs, k, groups = net.n_nodes, net.n_arcs, len(demands), net.edge_count
    ends = np.array([(net.node_index(d.source), net.node_index(d.sink)) for d in demands],
                    dtype=np.int64).reshape(k, 2)
    amount = np.array([d.amount for d in demands], dtype=float)
    cap = np.array(_capacities(net))
    shut = (cap <= 0) & congestion  # closed resources get no column under congestion
    group = np.array([a.group for a in net.arcs], dtype=np.int64)
    col, cols, coefs, count = commodities(
        m, net, ends, net.bars(ends) | shut[group],
        (np.arange(n) != ends[:, :1]) & ~shut[groups:], np.full(k, congestion) | np.isfinite(amount))
    written = count > 0
    written[:, -1] |= congestion
    b, row = np.nonzero(written)
    out = row == 2 * n
    senses = [np.where(out, "==" if congestion else "<=", "==")]
    rhs = [np.where(out, amount[b], 0.0)]
    lengths = [count[b, row]]

    theta = m.add_var() if kind == "min-max-congestion" else None
    # each resource's columns: slot by slot (arc by arc, w before g, then
    # node by node), demand by demand within a slot
    load = col.T.ravel()
    resource = np.repeat(np.concatenate((np.repeat(group, 2), groups + np.arange(n))), k)
    load, resource = load[load >= 0], resource[load >= 0]
    per = np.bincount(resource, minlength=groups + n)
    used = np.flatnonzero(per)
    if kind == "max-total-flow":
        w = col[:, :2 * n_arcs:2]
        outs = w[(net.arc_ends[0] == ends[:, :1]) & (w >= 0)]
        obj = dict.fromkeys(outs.tolist(), 1.0)
        cols, coefs = [cols, load], [coefs, np.ones(len(load))]
        lengths.append(per[used])
        senses.append(np.full(len(used), "<="))
        rhs.append(cap[used])
    elif theta is not None:
        obj = {theta: 1.0}
        at = np.cumsum(per[used])
        cols = [cols, np.insert(load, at, theta)]
        coefs = [coefs, np.insert(np.ones(len(load)), at, -cap[used])]
        lengths.append(per[used] + 1)
        senses.append(np.full(len(used), "<="))
        rhs.append(np.zeros(len(used)))
    else:
        ew, nw = objective.edge_weights or {}, objective.node_weights or {}
        weight = np.array([ew.get(g, 1.0) for g in range(groups)]
                          + [nw.get(v, 1.0) for v in net.nodes], dtype=float)
        obj = dict(zip(load.tolist(), (weight[resource] / cap[resource]).tolist()))
        cols, coefs = [cols], [coefs]
    m.add_rows(np.concatenate(cols), np.concatenate(coefs), np.cumsum(np.concatenate(lengths)),
               np.concatenate(senses), np.concatenate(rhs))
    m.set_objective(obj)
    m.info = {"col": col}
    return m


# a walk prices into the master when its reduced cost exceeds this
_PRICE_TOL = 1e-9

# a fresh max-total-flow master starts from the walks of SEED_ROUNDS
# multiplicative-weights pricing rounds at step SEED_EPSILON (`_seed_columns`);
# both were chosen by measuring the master's rounds and simplex iterations
SEED_ROUNDS = 8
SEED_EPSILON = 0.5

# a master column: (demand index, arc indices of its 2-walk or path, leg-1
# length); the first leg-1-length arcs carry the flow unprocessed to the
# processing vertex, the head of the last of them (a path's sink)
Column = tuple[int, tuple[int, ...], int]


class _WalkGraph:
    """The pricing graph of one list of (source, sink) pairs: block b is a
    copy of the network for pair b. For 2-walks it has two layers, nodes
    2nb + v (unprocessed) and 2nb + n + v (processed): layer 0 holds the arcs
    `FlowNetwork.bars` leaves open to w, layer 1 those open to g, and
    v0->v1 processes at v. For plain paths it is the one layer nb + v of the
    arcs `FlowNetwork.legs` leaves open to the leg source->sink: w's, with v
    at the sink. Each
    entry's weight is the price of the master row its key names: the arc's
    group row k + g, or node v's row k + G + v. Only the weights change from
    round to round: a solver that prices many rounds looks the graph up once
    (`_walk_graph`) and calls `price` on it each round.

    The graph also keeps each column's incidence (`uses`), counted once and
    then reused, since it depends on the topology alone. It holds no
    reference to its network, which caches it (`FlowNetwork._cache`, shared
    with the `with_node_capacity` copies), so that the two do not form a
    cycle."""

    __slots__ = ("csr", "keys", "sources", "sinks", "arc", "block", "n", "group", "head",
                 "vertex", "_uses", "_dijkstra")

    def __init__(self, net: FlowNetwork, pairs: list[tuple[str, str]], paths: bool):
        # imported here: `import pflow` and the purchase LPs need not pay the
        # ~1 MB of RSS that csgraph costs
        from scipy.sparse.csgraph import dijkstra

        n, k, layers = net.n_nodes, len(pairs), 1 if paths else 2
        tail, head = net.arc_ends
        group = k + np.array([a.group for a in net.arcs], dtype=np.int64)
        ends = np.array([(net.node_index(s), net.node_index(t)) for s, t in pairs],
                        dtype=np.int64).reshape(k, 2)
        # open[b, layer, a]: arc a is open to pair b's w (layer 0) or g (layer 1)
        if paths:  # one leg, source->sink
            is_open = ~net.legs(ends[:, :1], ends[:, 1:])
        else:
            is_open = ~net.bars(ends)
        b, layer, a = np.nonzero(is_open)
        first = n * (layers * b + layer)
        rows, cols, keys = first + tail[a], first + head[a], group[a]
        if not paths:
            unprocessed = (2 * n * np.arange(k)[:, None] + np.arange(n)).ravel()
            rows = np.concatenate((rows, unprocessed))
            cols = np.concatenate((cols, unprocessed + n))
            keys = np.concatenate((keys, np.tile(k + net.edge_count + np.arange(n), k)))
        order = np.argsort(rows, kind="stable")
        self.block = block = layers * n  # nodes per pair
        indptr = np.zeros(block * k + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=block * k), out=indptr[1:])
        self.csr = csr_matrix((np.zeros(len(order)), cols[order].astype(np.int32), indptr),
                              shape=(block * k, block * k))
        self.keys = keys[order]
        self.sources = block * np.arange(k) + ends[:, 0]
        self.sinks = block * np.arange(k) + block - n + ends[:, 1]
        self.arc = {uh: a for a, uh in enumerate(zip(tail.tolist(), head.tolist()))}
        self.n, self.head = n, head.tolist()
        self.group = [a.group for a in net.arcs]
        # the resource index of processing at node index 0; a path has none
        self.vertex = None if paths else net.edge_count
        self._uses: dict[Column, tuple[tuple[int, int], ...]] = {}
        self._dijkstra = dijkstra

    def closed_rows(self, capacity: Sequence[float]) -> np.ndarray:
        """The master rows of the resources of capacity 0 (or less) in
        `capacity`, the row capacities (`_capacities`) of the graph's network
        or of a `with_node_capacity` copy of it: `price` prices them at inf."""
        return len(self.sources) + np.flatnonzero(np.array(capacity) <= 0)

    def price(self, price: np.ndarray, closed: np.ndarray
              ) -> tuple[np.ndarray, Callable[[int], Column]]:
        """Every pair's cheapest processed 2-walk (in `paths` mode, its
        cheapest plain source->sink path, which reads no node capacity)
        under the master's row prices, by one Dijkstra run.

        `price` is indexed like the master's rows (demands, then bandwidth
        groups, then nodes, which `paths` has none of), non-negative on the
        last two, and is read, not kept. An arc costs its group's price and
        processing at v costs v's; the rows `closed` (`closed_rows`), the
        resources of capacity 0, cost inf. Returns each pair's cost (inf
        without a walk; the demand rows' prices are not part of it) and a
        function that rebuilds the walk of a pair i whose cost is finite,
        as a master column (a path is processed at its sink); ties between
        walks break in csgraph's order."""
        weight = np.array(price, dtype=float)
        weight[closed] = math.inf
        weight.take(self.keys, out=self.csr.data, mode="clip")  # every key is a row
        dist, pred, _ = self._dijkstra(self.csr, indices=self.sources, min_only=True,
                                       return_predecessors=True)
        n, block, arc, pred = self.n, self.block, self.arc, pred.tolist()
        sources, sinks = self.sources.tolist(), self.sinks.tolist()

        def walk(i: int) -> Column:
            base, source, y = block * i, sources[i], sinks[i]
            arcs: list[int] = []
            after = 0  # arcs that carry the flow processed
            while y != source:
                x = pred[y]
                if x - base < n <= y - base:  # x -> y is v0 -> v1, processing at v
                    after = len(arcs)
                else:
                    arcs.append(arc[(x - base) % n, (y - base) % n])
                y = x
            return i, tuple(reversed(arcs)), len(arcs) - after

        return dist[self.sinks], walk

    def uses(self, col: Column) -> tuple[tuple[int, int], ...]:
        """How many times `col` uses each resource it uses, as (resource
        index, times) pairs: its processing vertex v at edge_count + v's
        index (a path has none), then each bandwidth group g at g, in the
        order of first use. Counted on a column's first call, then kept."""
        inc = self._uses.get(col)
        if inc is None:
            _, arcs, split = col
            uses = {} if self.vertex is None else {self.vertex + self.head[arcs[split - 1]]: 1}
            for a in arcs:
                g = self.group[a]
                uses[g] = uses.get(g, 0) + 1
            inc = self._uses[col] = tuple(uses.items())
        return inc


def _walk_graph(net: FlowNetwork, demands: list[Demand], paths: bool = False) -> _WalkGraph:
    """The pricing graph of `demands`' (source, sink) pairs in `paths`' mode:
    built on a network's first call, then cached on it, and handed on by
    `FlowNetwork.with_node_capacity`."""
    key = (paths, *((d.source, d.sink) for d in demands))
    graph = net._cache.get(key)
    if graph is None:
        graph = net._cache[key] = _WalkGraph(net, list(key[1:]), paths)
    return graph


def _peak_ratio(graph: _WalkGraph, capacity: Sequence[float], cols: Sequence[Column],
                values: list[float]) -> float:
    """The largest load/capacity ratio over the resources with capacity, the
    loads summed off the columns' incidences (`_WalkGraph.uses`); a
    congestion solution puts no load on the others."""
    load = [0.0] * len(capacity)
    for col, val in zip(cols, values):
        for r, m in graph.uses(col):
            load[r] += m * val
    return max((x / c for x, c in zip(load, capacity) if c > 0), default=0.0)


class WalkFold:
    """Walk entries folded from (column, flow) pairs: one entry per (demand,
    node sequence), processed at each column's vertex nodes[split], so that
    columns of one walk processed at different vertices merge into one entry
    that carries them all. The walk master's walks (`master_walks`), MWU's
    rounds and naive's paths are all built through it."""

    def __init__(self, net: FlowNetwork, demands: list[Demand]):
        self.net, self.demands = net, demands
        # (demand, nodes) -> [flow, {vertex: flow}], in the order first added
        self.walks: dict[tuple[int, tuple[str, ...]], list] = {}
        # column -> its walk's [flow, {vertex: flow}] and its vertex
        self._ends: dict[Column, tuple[list, str]] = {}

    def add(self, pairs: Iterable[tuple[Column, float]]) -> WalkFold:
        """Add each column's flow to its walk and to its processing vertex."""
        ends = self._ends
        for col, flow in pairs:
            end = ends.get(col)
            if end is None:
                i, arcs, split = col
                nodes = (self.demands[i].source, *(self.net.arcs[a].head for a in arcs))
                walk = self.walks.setdefault((i, nodes), [0.0, {}])
                end = ends[col] = (walk, nodes[split])
            walk, v = end
            walk[0] += flow
            walk[1][v] = walk[1].get(v, 0.0) + flow
        return self

    def entries(self, scale: Sequence[float] | None = None) -> list[WalkEntry]:
        """The walks as entries, demand i's flows divided by scale[i] when
        `scale` is given."""
        if scale is None:
            scale = [1.0] * len(self.demands)
        return [WalkEntry(i, nodes, flow / scale[i], {v: amt / scale[i] for v, amt in proc.items()})
                for (i, nodes), (flow, proc) in self.walks.items()]


def charge_walks(graph: _WalkGraph, walk: Callable[[int], Column], chosen: list[int],
                 capacity: list[float], limit: Sequence[float] | None = None
                 ) -> tuple[list[tuple[Column, float]], list[float]]:
    """One multiplicative-weights round's charge, shared by `_seed_columns`
    and `mwu.mwu_solve`: rebuild the walk of each demand in `chosen`, in that
    order, and give it its bottleneck f = min_r cap_r/m_r over the resources
    r it uses m_r times (1 for its processing vertex), at most limit[i] for
    demand i when `limit` is given. Each walk's incidence is the one `graph`,
    its pricing graph, keeps (`_WalkGraph.uses`), so a walk that repeats
    from round to round is counted once. Returns each (column, f) and, per
    resource, u_r = Σ m_r·f/cap_r summed walk by walk, as a list; a walk
    with f = inf (on uncapacitated resources only) adds nothing to u."""
    use = [0.0] * len(capacity)
    charged = []
    for i in chosen:
        col = walk(i)
        uses = graph.uses(col)
        f = min(capacity[r] / m for r, m in uses)
        if limit is not None:
            f = min(f, limit[i])
        if f < math.inf:
            for r, m in uses:
                use[r] += m * f / capacity[r]
        charged.append((col, f))
    return charged, use


def _seed_columns(graph: _WalkGraph, closed: np.ndarray, capacity: list[float]
                  ) -> list[Column]:
    """The first columns of a fresh max-total-flow master: the walks of
    SEED_ROUNDS rounds of Garg and Könemann's multiplicative weights, in the
    order first found.

    Every resource r (bandwidth group, then node) of capacity cap_r starts at
    weight 1. A round prices every demand's cheapest 2-walk under y_g =
    w_g/B_g and z_v = w_v/C_v (one `graph.price` call under the `closed`
    rows, on the graph the master prices on; no HiGHS). Each walk of finite
    cost is charged its bottleneck (`charge_walks`), which multiplies each
    w_r it uses by exp(SEED_EPSILON * m_r * f / cap_r). Weights are kept as
    logarithms, a list of floats, and scaled by their largest before
    pricing, which moves no walk; only that exponential and the price vector
    are numpy's."""
    k = len(graph.sources)
    inv = np.array([1.0 / c if c > 0 else 0.0 for c in capacity])
    log_weight = [0.0] * len(capacity)
    price = np.zeros(k + len(capacity))
    seed: dict[Column, None] = {}
    for _ in range(SEED_ROUNDS):
        top = max(log_weight)
        np.multiply(np.exp([w - top for w in log_weight]), inv, out=price[k:])
        cost, walk = graph.price(price, closed)
        charged, grow = charge_walks(graph, walk, [i for i, c in enumerate(cost.tolist())
                                                   if c < math.inf], capacity)
        seed.update(dict.fromkeys(col for col, _ in charged))
        log_weight = [w + SEED_EPSILON * g for w, g in zip(log_weight, grow)]
    return list(seed)


class WalkMaster:
    """The column-generation master of max total flow (over 2-walks, or
    plain paths with `paths`) or min-max congestion, held so that it can be
    re-solved as node capacities change; `solve_walk_master` solves one
    once and releases it.

    It owns one pooled HiGHS object, which `release` gives back, the pricing
    graph of its demands (`_walk_graph`), and its columns, which stay valid
    when only node capacities change. `solve` takes the network the master
    was built on or a `with_node_capacity` copy of it and rewrites the node
    rows whose capacity changed: a row's upper bound under max total flow,
    θ's coefficient on it under min-max. HiGHS then re-optimizes from the
    basis the last solve left, by primal simplex while that basis stays
    feasible and by dual simplex when the new capacities leave it primal
    infeasible, and the rounds run from there."""

    def __init__(self, net: FlowNetwork, demands: list[Demand],
                 objective: Objective = Objective(), paths: bool = False):
        kind = _check_objective(net, demands, objective)
        if paths and kind != "max-total-flow":
            raise ValueError("the path master maximizes total flow only")
        if kind == "min-weighted-congestion":
            raise ValueError("min-weighted congestion is one pricing call, which "
                             "solve_walk_master makes, not a master")
        self.demands, self.kind, self.paths = demands, kind, paths
        self.minmax = minmax = kind == "min-max-congestion"
        self.topology = net._cache  # what its with_node_capacity copies share
        self.graph = _walk_graph(net, demands, paths)
        self.capacity = capacity = _capacities(net, paths)
        k, amounts = len(demands), [d.amount for d in demands]
        lp = HighsLp()  # no columns yet
        lp.num_row_ = lp.a_matrix_.num_row_ = k + len(capacity)
        lp.row_lower_ = (amounts if minmax else [-math.inf] * k) + [-math.inf] * len(capacity)
        lp.row_upper_ = amounts + ([0.0] * len(capacity) if minmax else capacity)
        self.cols: list[Column] = []
        self.known: set[Column] = set()
        self.highs = highs = _highs()
        highs.passModel(lp)
        if minmax:  # θ is column 0
            rows = np.flatnonzero(np.array(capacity) > 0)
            highs.addCols(1, np.ones(1), np.zeros(1), np.full(1, math.inf), len(rows),
                          np.zeros(1, dtype=np.int32), (rows + k).astype(np.int32),
                          -np.array(capacity)[rows])

    def release(self) -> None:
        """Give the master's HiGHS object back to the pool; the master is
        not solved again."""
        _release(self.highs)

    def solve(self, net: FlowNetwork) -> tuple[LPResult, list[Column], dict]:
        """The master optimal on `net`, as `solve_walk_master` describes it,
        from the columns and basis the master holds, within one MAXITER
        budget. A master without columns starts as a fresh one does (the
        seed under max total flow over 2-walks); one with columns re-solves
        them under `net`'s node rows first, then prices. Under min-max, each
        demand's cheapest walk at zero prices joins unless already held.
        ValueError, before anything is built, when `net` is not the master's
        network or a `with_node_capacity` copy of it (it does not share the
        master's topology cache)."""
        graph, demands, minmax, highs = self.graph, self.demands, self.minmax, self.highs
        if net._cache is not self.topology:
            raise ValueError("a walk master solves its own network or a "
                             "with_node_capacity copy of it")
        k, groups = len(demands), net.edge_count
        capacity = _capacities(net, self.paths)
        for v, (old, new) in enumerate(zip(self.capacity[groups:], capacity[groups:])):
            if old != new:  # node v's row
                if minmax:
                    highs.changeCoeff(k + groups + v, 0, -new)
                else:
                    highs.changeRowBounds(k + groups + v, -math.inf, new)
        self.capacity = capacity
        amounts = [d.amount for d in demands]
        upper = amounts + capacity
        closed = graph.closed_rows(capacity)
        price = np.zeros(len(upper))  # the empty master's duals
        # with no processing capacity no 2-walk has a finite cost: price nothing
        pricing = self.paths or any(c > 0 for c in net.node_capacity.values())
        cols, known, batch = self.cols, self.known, []
        if not (cols or self.paths or minmax) and pricing and k:
            batch = _seed_columns(graph, closed, capacity)
        seeded = len(batch)
        if minmax:  # each demand's cheapest walk at zero prices joins
            batch = [col for col in _cheapest_walks(graph, closed, demands, price)[1]
                     if col not in known]
        rerun = bool(cols)  # the columns held re-solve under the new rows
        # a fixed demand row's dual, under min-max, may take either sign
        floor = np.repeat([-math.inf if minmax else 0.0, 0.0], [k, len(capacity)])
        worth = 0.0 if minmax else 1.0
        used, rounds, value = 0, 0, 0.0
        while True:
            if batch:
                starts, index, coefs = [], [], []
                for col in batch:
                    starts.append(len(index))
                    # its demand row, then its processing vertex's and group rows
                    uses = graph.uses(col)
                    index += [col[0], *(k + r for r, _ in uses)]
                    coefs += [1, *(m for _, m in uses)]
                n = len(batch)
                highs.addCols(n, np.full(n, -worth), np.zeros(n), np.full(n, math.inf),
                              len(index), np.array(starts, dtype=np.int32),
                              np.array(index, dtype=np.int32), np.array(coefs, dtype=float))
                cols += batch
                known.update(batch)
            if batch or rerun:
                rerun = False
                status, nit, obj = _run(highs, MAXITER - used)
                used += nit
                if status != "optimal":
                    raise ResourceLimitError(f"walk master ended {status}")
                value = (1.0 if minmax else -1.0) * obj
                dual = np.asarray(highs.getSolution().row_dual)
                if not np.isfinite(dual).all():
                    raise ResourceLimitError("walk master returned a non-finite row dual")
                price = np.maximum(-dual, floor)
            rounds += 1
            batch, reduced, cost = [], -math.inf, np.zeros(k)
            if pricing and k:
                cost, walk = graph.price(price, closed)
                gain = worth - price[:k] - cost
                reduced = float(gain.max())
                batch = [col for col in map(walk, np.flatnonzero(gain > _PRICE_TOL).tolist())
                         if col not in known]
            if not batch:
                break
        x = np.asarray(highs.getSolution().col_value)[int(minmax):]
        meta = {"algorithm": "lp", "objective_kind": self.kind}
        if minmax:
            meta["congestion"] = value
            # a demand of amount 0 may have no walk, and so cost inf
            bound = float(np.dot(amounts, np.where(np.isfinite(cost), cost, 0.0)))
        else:  # an uncapped demand's row never binds, so its price is 0
            bound = sum(b * y for b, y in zip(upper, price.tolist()) if y > 0.0)
        meta.update(lp_objective=value, lp_iterations=used, rounds=rounds, columns=len(cols),
                    seed_columns=seeded, dual_bound=bound, max_reduced_cost=reduced)
        return LPResult("optimal", x, value, used), list(cols), meta


def solve_walk_master(net: FlowNetwork, demands: list[Demand],
                      objective: Objective = Objective(),
                      paths: bool = False) -> tuple[LPResult, list[Column], dict]:
    """`objective` over processed 2-walks, once `_check_objective` passes it;
    with `paths`, max total flow over plain source->sink paths. Max total
    flow and min-max congestion solve a `WalkMaster` once and release it.

    Max total flow is column generation. The master LP has a row per demand
    (at most R_i), group (at most B_g) and node (at most C_v), and a column
    per (demand, 2-walk, processing vertex) priced in, worth 1: 1 on its
    demand and node rows, and on each group row the times the walk uses that
    group. It starts from the walks of SEED_ROUNDS multiplicative-weights
    pricing rounds (`_seed_columns`), which call no HiGHS. Each round turns
    the negated row duals, clamped at 0 (a non-finite one raises
    ResourceLimitError), into prices σ_i, y_g and z_v, and prices every
    demand's cheapest 2-walk at once unless no node can process, on the
    pricing graph the master holds (`_WalkGraph.price`), whose count of each
    column's rows (`_WalkGraph.uses`) also writes the columns. A new walk
    joins when its worth - σ_i - cost exceeds 1e-9, and HiGHS re-solves by
    primal simplex from the current basis, which new columns leave
    feasible, all solves within one MAXITER budget. The rounds stop when
    none joins; as no walk joins twice, they do, and the optimum, the dual
    bound and the final reduced cost mean what they mean from any start,
    the seed's or a held master's.

    With `paths` the master is the plain multicommodity max flow of Ford
    and Fulkerson, blind to processing: it has no node rows, never reads
    node capacity, and prices each demand's cheapest simple path under
    `FlowNetwork.legs`, its one leg running source->sink (the pricing graph
    in `paths` mode). Its columns are those paths, each processed at its
    sink.

    Min-max congestion is this master with demand rows fixed at R_i,
    capacity rows at most 0, walks worth 0, σ_i unclamped, and a column θ of
    cost 1 and -B_g (-C_v) on each group (node) row of positive capacity;
    it also starts with each demand's cheapest walk at zero prices.
    Min-weighted congestion puts each R_i on the demand's cheapest walk
    under y_g = w_g/B_g and z_v = w_v/C_v, for Σ R_i cost_i. Under both, a
    demand of positive amount without a walk raises InfeasibleError, and
    meta["congestion"] is the peak load/capacity ratio (θ under min-max).

    Returns the LPResult (`x` indexed like the columns), the columns and the
    meta, and builds no solution: `master_walks` folds the columns into
    walks, and `solve_edge_lp` sums them into edge flows. The meta holds the
    objective, simplex iterations, rounds (its own pricing rounds, not the
    seed's), columns, and `seed_columns`, how many of those the seed
    contributed (0 for a master that held columns, and under min-max
    congestion); the final round's largest gain (-inf without walks), and
    the dual bound under the final prices: Σ R_i σ_i (finite R_i) + Σ B_g y_g
    + Σ C_v z_v, or Σ R_i cost_i under min-max. ResourceLimitError when the
    budget runs out or the master ends other than optimal.
    """
    if objective.kind == "min-weighted-congestion" and not paths:
        _check_objective(net, demands, objective)
        k, caps = len(demands), net.group_capacity
        amounts = [d.amount for d in demands]
        capacity = _capacities(net)
        graph = _walk_graph(net, demands)
        ew, nw = objective.edge_weights or {}, objective.node_weights or {}
        weight = [ew.get(g, 1.0) for g in range(len(caps))] + [nw.get(v, 1.0) for v in net.nodes]
        # a resource of capacity 0 is a closed row, which costs inf whatever its price
        price = [0.0] * k + [w / c if c > 0 else 0.0 for w, c in zip(weight, capacity)]
        cost, cols = _cheapest_walks(graph, graph.closed_rows(capacity), demands, np.array(price))
        value = float(np.dot(amounts, cost))
        x = [amounts[i] for i, _, _ in cols]
        meta = {"algorithm": "lp", "objective_kind": objective.kind, "lp_objective": value,
                "lp_iterations": 0, "congestion": _peak_ratio(graph, capacity, cols, x)}
        return LPResult("optimal", np.array(x), value, 0), cols, meta
    master = WalkMaster(net, demands, objective, paths)
    try:
        return master.solve(net)
    finally:
        master.release()


def _edge_solution(net: FlowNetwork, demands: list[Demand], cols: Sequence[Column],
                   values: list[float], meta: dict) -> EdgeFlowSolution:
    """Sum (column, value) pairs with values above SNAP into edge flows: a
    column's arcs before its processing vertex carry its value unprocessed,
    the arcs after it processed. The objective is what the demands deliver."""
    flow, unproc, proc = ([{} for _ in demands] for _ in range(3))
    for (i, arcs, split), val in zip(cols, values):
        if val <= SNAP:
            continue
        f, w, p = flow[i], unproc[i], proc[i]
        for a in arcs:
            f[a] = f.get(a, 0.0) + val
        for a in arcs[:split]:
            w[a] = w.get(a, 0.0) + val
        v = net.arcs[arcs[split - 1]].head
        p[v] = p.get(v, 0.0) + val
    sol = EdgeFlowSolution(flow, unproc, proc, 0.0, meta)
    sol.objective = sum(sol.delivered(net, demands, i) for i in range(len(demands)))
    return sol


def _cheapest_walks(graph: _WalkGraph, closed: np.ndarray, demands: list[Demand],
                    price: np.ndarray) -> tuple[np.ndarray, list[Column]]:
    """Each demand's cheapest walk under `price` on `demands`' pricing graph
    (`_WalkGraph.price`): its cost (0 for a demand without one, which asks
    for nothing) and the column of each demand that has one;
    InfeasibleError when a demand of positive amount has none."""
    cost, walk = graph.price(price, closed) if demands else (np.zeros(0), None)
    has = np.isfinite(cost)
    stuck = [i for i, d in enumerate(demands) if d.amount > 0 and not has[i]]
    if stuck:
        raise InfeasibleError(f"demand {stuck[0]} has no processed 2-walk "
                              f"(demands cannot all be met)")
    return np.where(has, cost, 0.0), [walk(i) for i in np.flatnonzero(has).tolist()]


def master_walks(net: FlowNetwork, demands: list[Demand], res: LPResult,
                 cols: Sequence[Column], meta: dict) -> WalkFlowSolution:
    """A walk master's answer as walks: its columns of value above SNAP,
    folded (`WalkFold`), with its meta."""
    pairs = [(col, x) for col, x in zip(cols, res.x.tolist()) if x > SNAP]
    return WalkFlowSolution(WalkFold(net, demands).add(pairs).entries(), meta)


def solve_edge_lp(net: FlowNetwork, demands: list[Demand],
                  objective: Objective = Objective()) -> tuple[EdgeFlowSolution, LPResult]:
    """Edge flows optimal under `objective`, and the LPResult: the walk
    master's (`solve_walk_master`), its walks summed."""
    res, cols, meta = solve_walk_master(net, demands, objective=objective)
    return _edge_solution(net, demands, cols, res.x.tolist(), meta), res


def write_mps(model: LPModel, path: str) -> None:
    """Serialize to the row/column interchange format most LP tools accept.

    Column j is named C<j> and row k R<k>. Raises ValueError on a model
    `LPModel.check` rejects.
    """
    model.check()
    A = csr_matrix((model.coefs, model.cols, model.starts),
                   shape=(model.n_rows, model.n_vars)).tocsc()
    sense_tag = {"<=": "L", ">=": "G", "==": "E"}
    lines = [f"NAME          {model.name}", "OBJSENSE",
             f"    {'MAXIMIZE' if model.sense == 'max' else 'MINIMIZE'}", "ROWS",
             " N  OBJ"]
    lines += [f" {sense_tag[s]}  R{k}" for k, s in enumerate(model.senses.tolist())]
    lines.append("COLUMNS")
    for j in range(model.n_vars):
        span = slice(A.indptr[j], A.indptr[j + 1])
        entries = [(f"R{k}", coef) for k, coef in
                   zip(A.indices[span].tolist(), A.data[span].tolist())]
        entries.append(("OBJ", model.objective.get(j, 0.0)))
        lines += [f"    C{j}  {row}  {coef!r}" for row, coef in entries if coef != 0.0]
    lines.append("RHS")
    lines += [f"    RHS  R{k}  {rhs!r}" for k, rhs in enumerate(model.rhs.tolist()) if rhs != 0.0]
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
