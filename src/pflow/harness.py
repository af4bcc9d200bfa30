"""Experiment runner: sweep node processing capacity, race the solvers.

The sweep re-capacitates a fixed topology at each grid point, either giving
every node the same processing capacity ("all") or concentrating it on a
fixed, seed-chosen half of the nodes ("half"), and records per-algorithm
objectives and solve times. The half-subset is drawn once per sweep, not per
grid point, so a ratio curve over the grid describes one network family.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .lp import Objective, WalkMaster, master_walks, solve_walk_master
from .model import Demand, FlowNetwork, StructuralError
from .mwu import MWUConfig, mwu_solve
from .naive import naive_solve, process_paths, route_paths

KNOWN_ALGS = ("lp", "mwu", "naive")
# the most grid points a sweep may have, floor((hi - lo)/step) + 1: compare_runs
# builds the whole grid before its first solve
MAX_GRID_POINTS = 10_000


@dataclass
class SweepSpec:
    """Capacity grid [lo, hi] in `step` increments plus the distribution."""

    lo: float
    hi: float
    step: float
    dist: str = "all"   # all | half
    seed: int = 0
    # >1 repeats each run (e.g. to average wall times); a repeated naive run
    # repeats only its processing phase, as the routing is solved once per sweep
    repetitions: int = 1

    def __post_init__(self):
        # node capacities must be finite and non-negative (validate_instance),
        # and so must every grid point; a finite step keeps the grid finite
        if not 0 <= self.lo <= self.hi < math.inf:
            raise StructuralError(f"bad capacity range [{self.lo}, {self.hi}]: need "
                                  f"finite 0 <= lo <= hi")
        if not 0 < self.step < math.inf:
            raise StructuralError(f"step must be positive and finite, got {self.step}")
        # floor(x) + 1 > MAX_GRID_POINTS exactly when x >= MAX_GRID_POINTS; the
        # quotient may overflow to inf, which floor would reject
        if (self.hi - self.lo) / self.step >= MAX_GRID_POINTS:
            raise StructuralError(f"step {self.step} over [{self.lo}, {self.hi}] gives more "
                                  f"than {MAX_GRID_POINTS} grid points")
        if self.dist not in ("all", "half"):
            raise StructuralError(f"distribution must be all or half, got {self.dist!r}")
        if self.repetitions < 1:
            raise StructuralError("repetitions must be >= 1")

    def grid(self) -> list[float]:
        out = []
        c = self.lo
        # tolerance so hi lands on the grid despite float stepping
        while c <= self.hi + 1e-9 * max(1.0, abs(self.hi)):
            out.append(round(c, 12))
            c += self.step
        return out


@dataclass
class RunRecord:
    instance: str        # grid-point id, e.g. "cap=2.5/half"
    algorithm: str
    objective: float     # nan when the solver errored
    wall_time: float     # seconds of solver work done for this record; naive's
                         # shared routing counts in the sweep's first naive record
    iterations: int      # lp: simplex iterations of this point's re-solve of the
                         # sweep's one walk master; naive: the sweep's one path
                         # master's, on every record; mwu: rounds
    feasible: bool
    error: str | None = None


def half_subset(net: FlowNetwork, seed: int) -> list[str]:
    """The fixed half of the nodes that receives capacity in `half` mode."""
    import random
    rng = random.Random(seed)
    nodes = list(net.nodes)
    return sorted(rng.sample(nodes, len(nodes) // 2))


def _capacitate(net: FlowNetwork, c: float, dist: str,
                half: list[str]) -> FlowNetwork:
    if dist == "all":
        caps = {v: c for v in net.nodes}
    else:
        chosen = set(half)
        caps = {v: (c if v in chosen else 0.0) for v in net.nodes}
    return net.with_node_capacity(caps)


def run_solver(alg: str, net: FlowNetwork, demands: list[Demand],
               epsilon: float, objective: Objective = Objective()):
    """The solver dispatch behind `pflow solve`. `compare_runs` runs each
    algorithm itself, to share work across grid points.

    Every algorithm returns a WalkFlowSolution: lp the walk master's walks
    (`lp.master_walks`) under any objective; mwu, with accuracy `epsilon`,
    and naive under the default one.
    """
    if alg == "lp":
        return master_walks(net, demands, *solve_walk_master(net, demands, objective=objective))
    if alg == "mwu":
        return mwu_solve(net, demands, MWUConfig(epsilon=epsilon))
    if alg == "naive":
        return naive_solve(net, demands)
    raise StructuralError(f"unknown algorithm {alg!r}")


def compare_runs(net: FlowNetwork, demands: list[Demand], sweep: SweepSpec,
                 algorithms=KNOWN_ALGS, epsilon: float = 0.1) -> list[RunRecord]:
    """Grid x algorithm run matrix.

    Solver failures do not abort the sweep; the failing row records the error
    and a nan objective. A record's wall time covers the solver work done for
    it only, so over a sweep they add up to the time spent in solvers. naive's
    routing phase ignores node capacity, so it runs once, inside the timer of
    the first naive record; every naive run then repeats only the processing
    phase against its grid point's capacities. If the routing fails, every
    naive record carries its error.

    lp holds one walk master (`lp.WalkMaster`) across the grid and
    re-solves it at each point: a walk stays valid when only node
    capacities change, so a point rewrites the node rows and re-optimizes
    from the basis and columns the previous point left (whatever a failed
    point left), each point within its own MAXITER budget. A master without
    columns, as at the first point, starts from the seed exactly as a fresh
    solve does. With repetitions, every repetition of a point, the first
    included, restores the point's start (`WalkMaster.mark` and `rewind`),
    so all report the same objective and iterations. An lp record's
    iterations are its point's re-solve, and its objective, what the
    master's walks deliver, equals a fresh solve's to rounding. The master's
    HiGHS object goes back to the pool when the sweep ends.

    An unknown algorithm, and with mwu an `epsilon` that `MWUConfig`
    rejects, raise before any solve; every mwu record runs under that one
    config.
    """
    algs = list(algorithms)
    for a in algs:
        if a not in KNOWN_ALGS:
            raise StructuralError(f"unknown algorithm {a!r}; "
                                  f"choose from {', '.join(KNOWN_ALGS)}")
    config = MWUConfig(epsilon=epsilon) if "mwu" in algs else None
    half = half_subset(net, sweep.seed) if sweep.dist == "half" else []
    records: list[RunRecord] = []
    routing = None  # naive's phase 1 once solved, or the exception it raised
    master = None  # lp's walk master, built by its first solve
    start = None  # with repetitions, the grid point's start in the master

    def solve(alg: str, capped: FlowNetwork):
        nonlocal routing, master
        if alg == "lp":
            if master is None:
                master = WalkMaster(net, demands)
            elif start:
                master.rewind(start)
            return master_walks(capped, demands, *master.solve(capped))
        if alg == "mwu":
            return mwu_solve(capped, demands, config)
        if routing is None:
            try:
                routing = route_paths(net, demands)
            except Exception as exc:  # replayed on every naive record
                routing = exc
        if isinstance(routing, Exception):
            raise routing
        return process_paths(capped, routing)

    try:
        for c in sweep.grid():
            capped = _capacitate(net, c, sweep.dist, half)
            if sweep.repetitions > 1:
                # before the master's first solve: no columns and no basis
                start = master.mark() if master else (0, None)
            for rep in range(1, sweep.repetitions + 1):
                rep_tag = f"/r{rep}" if sweep.repetitions > 1 else ""
                inst_id = f"cap={c:g}/{sweep.dist}{rep_tag}"
                for alg in algs:
                    try:
                        t0 = time.perf_counter()
                        sol = solve(alg, capped)
                        dt = time.perf_counter() - t0
                        iters = sol.meta["iterations" if alg == "mwu" else "lp_iterations"]
                        records.append(RunRecord(inst_id, alg, sol.objective, dt,
                                                 int(iters), True))
                    except Exception as exc:  # record and continue, per contract
                        records.append(RunRecord(inst_id, alg, math.nan, 0.0, 0,
                                                 False, f"{type(exc).__name__}: {exc}"))
    finally:
        if master is not None:
            master.release()
    return records


CSV_HEADER = "instance,algorithm,objective,wall_time,iterations,feasible,error"


def write_csv(records: list[RunRecord], path: str) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER.split(","))
        for r in records:
            w.writerow([r.instance, r.algorithm,
                        "" if math.isnan(r.objective) else repr(r.objective),
                        repr(r.wall_time), r.iterations,
                        int(r.feasible), r.error or ""])
