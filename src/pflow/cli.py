"""Command line front end.

Subcommands:
  solve      run one solver on an instance file, write a solution document
  decompose  turn a saved arc-flow document into routed walks
  purchase   buy processing capacity (min-cost or budgeted) and route
  gen        write generated instances (random or reduction gadgets)
  compare    sweep node capacity over a grid and tabulate solver objectives

Exit codes: 0 success, 2 invalid input, 3 infeasible, 4 resource limit.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .decompose import decompose
from .generators import gen_random_instance, gen_reduction_instance
from .harness import KNOWN_ALGS, SweepSpec, compare_runs, run_solver, write_csv
from .instance_io import (emit_edge_solution, emit_instance, emit_solution,
                          parse_instance, parse_solution)
from .lp import Objective, build_edge_lp, solve_edge_lp, write_mps
from .model import (InfeasibleError, ResourceLimitError, StructuralError,
                    validate_instance, verify_edge_solution)
from .purchase import (round_budgeted_purchase, round_min_purchase,
                       solve_purchase_lp, validate_purchase_instance)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

# user-facing objective names; the LP layer keeps the long-form kinds
_OBJECTIVES = {"maxflow": "max-total-flow", "congestion": "min-max-congestion"}


def _require(report) -> None:
    if not report:
        raise StructuralError("; ".join(report.problems))


def _checked_instance(path: str):
    inst = parse_instance(path)
    _require(validate_instance(inst.net, inst.demands))
    return inst


def _cmd_solve(args) -> int:
    inst = _checked_instance(args.input)
    objective = Objective(kind=_OBJECTIVES[args.objective])
    if args.alg != "lp":
        if args.objective != "maxflow":
            raise StructuralError(f"--objective {args.objective} needs --alg lp")
        if args.format == "edge-flows":
            raise StructuralError("--format edge-flows needs --alg lp")

    if args.emit_lp:
        # the instance's arc LP, for other solvers; whichever algorithm
        # runs below, pflow does not solve this model
        write_mps(build_edge_lp(inst.net, inst.demands, objective), args.emit_lp)

    if args.format == "edge-flows":  # the master's walks summed into arc flows
        emit_edge_solution(solve_edge_lp(inst.net, inst.demands, objective)[0], inst,
                           args.output)
    else:
        sol = run_solver(args.alg, inst.net, inst.demands, args.epsilon, objective)
        emit_solution(sol, args.output, format=args.format)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    parsed = parse_solution(args.input)
    if not isinstance(parsed, tuple):
        raise StructuralError("input is not an edge-flows document "
                              "(produce one with: solve --alg lp --format edge-flows)")
    edge_sol, inst = parsed
    # decompose reads the flows as they are, so it gets only a feasible solution
    _require(validate_instance(inst.net, inst.demands))
    _require(verify_edge_solution(inst.net, inst.demands, edge_sol))
    sol = decompose(edge_sol, inst.net, inst.demands)
    emit_solution(sol, args.output, format="document")
    return EXIT_OK


def _cmd_purchase(args) -> int:
    inst = _checked_instance(args.input)
    pinst = inst.purchase()
    if args.budget is not None:
        pinst = replace(pinst, budget=args.budget)
    mode = "budgeted" if args.mode == "budget" else args.mode
    _require(validate_purchase_instance(pinst, mode))
    if args.mode == "min":
        lp_sol, _ = solve_purchase_lp(pinst, "min")
        sol = round_min_purchase(pinst, lp_sol, delta=args.delta,
                                 rng_seed=args.seed)
    else:
        sol = round_budgeted_purchase(pinst, rng_seed=args.seed)
    emit_solution(sol, args.output, net=pinst.net)
    return EXIT_OK


def _int_pair(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise StructuralError(f"expected LO:HI, got {text!r}")
    try:
        pair = (int(lo), int(hi))
    except ValueError:
        raise StructuralError(f"expected integers in LO:HI, got {text!r}") from None
    return pair


def _split_edges(text: str) -> list[tuple[str, str]]:
    edges = []
    for tok in text.replace(",", " ").split():
        u, sep, v = tok.partition("-")
        if not sep or not u or not v:
            raise StructuralError(f"expected U-V edge token, got {tok!r}")
        edges.append((u, v))
    if not edges:
        raise StructuralError("no edges given")
    return edges


def _split_sets(text: str) -> list[list[str]]:
    out = []
    for chunk in text.split(";"):
        elems = chunk.replace(",", " ").split()
        if elems:
            out.append(elems)
    if not out:
        raise StructuralError("no sets given")
    return out


def _cmd_gen(args) -> int:
    if args.kind == "random":
        if args.nodes is None:
            raise StructuralError("gen --kind random needs --nodes")
        inst = gen_random_instance(
            args.nodes, args.density,
            edge_cap=_int_pair(args.edge_cap),
            node_cap=_int_pair(args.node_cap),
            n_demands=args.demands, seed=args.seed,
            directed=not args.undirected,
            amounts=_int_pair(args.amount) if args.amount else None)
    elif args.kind in ("setcover", "maxkcover"):
        if not args.sets:
            raise StructuralError(f"gen --kind {args.kind} needs --sets")
        sets = _split_sets(args.sets)
        universe = (args.universe.replace(",", " ").split() if args.universe
                    else sorted({u for s in sets for u in s}))
        spec = {"sets": sets, "universe": universe}
        if args.kind == "maxkcover":
            if args.k is None:
                raise StructuralError("gen --kind maxkcover needs --k")
            spec["k"] = args.k
        inst = gen_reduction_instance(args.kind, spec)
    else:  # vertexcover | bisection
        if not args.edges:
            raise StructuralError(f"gen --kind {args.kind} needs --edges")
        inst = gen_reduction_instance(args.kind, {"edges": _split_edges(args.edges)})
    emit_instance(inst, args.output)
    return EXIT_OK


def _parse_sweep(text: str, dist: str, seed: int, repetitions: int) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise StructuralError(f"expected LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise StructuralError(f"non-numeric sweep bound in {text!r}") from None
    return SweepSpec(lo=lo, hi=hi, step=step, dist=dist, seed=seed,
                     repetitions=repetitions)


def _cmd_compare(args) -> int:
    inst = _checked_instance(args.input)
    sweep = _parse_sweep(args.sweep, args.dist, args.seed, args.repetitions)
    algs = tuple(a.strip() for a in args.algs.split(",") if a.strip())
    if not algs:
        raise StructuralError("--algs must name at least one algorithm")
    records = compare_runs(inst.net, inst.demands, sweep, algorithms=algs,
                           epsilon=args.epsilon)
    write_csv(records, args.output)
    failed = sum(1 for r in records if not r.feasible)
    print(f"{len(records)} runs, {failed} failed -> {args.output}",
          file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pflow",
        description="Routing with in-network processing: solvers, capacity "
                    "purchase, instance generators, and sweep comparisons.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one instance")
    sp.add_argument("--alg", required=True, choices=KNOWN_ALGS)
    sp.add_argument("--input", required=True, metavar="F")
    sp.add_argument("--epsilon", type=float, default=0.1,
                    help="mwu's certified gap: with no demand capped it stops at "
                         "(1 - epsilon) of its dual bound (ignored by lp/naive)")
    sp.add_argument("--objective", choices=sorted(_OBJECTIVES),
                    default="maxflow")
    sp.add_argument("--emit-lp", metavar="P",
                    help="also write the arc model in MPS format")
    sp.add_argument("--format", choices=("document", "csv", "edge-flows"),
                    default="document",
                    help="edge-flows keeps raw arc values for later decompose")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_solve)

    dp = sub.add_parser("decompose", help="edge-flows document -> walks")
    dp.add_argument("--input", required=True, metavar="EDGE_SOLUTION")
    dp.add_argument("-o", "--output", required=True)
    dp.set_defaults(func=_cmd_decompose)

    pp = sub.add_parser("purchase", help="buy processing capacity and route")
    pp.add_argument("--mode", required=True, choices=("min", "budget"))
    pp.add_argument("--input", required=True, metavar="F")
    pp.add_argument("--delta", type=float, default=0.2,
                    help="min mode: per-demand shortfall tolerance")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--budget", type=float, default=None,
                    help="override the instance file's budget line")
    pp.add_argument("-o", "--output", required=True)
    pp.set_defaults(func=_cmd_purchase)

    gp = sub.add_parser("gen", help="write a generated instance")
    gp.add_argument("--kind", required=True,
                    choices=("random", "setcover", "maxkcover",
                             "vertexcover", "bisection"))
    gp.add_argument("--nodes", type=int, help="random: node count")
    gp.add_argument("--density", type=float, default=0.35)
    gp.add_argument("--demands", type=int, default=2)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--undirected", action="store_true")
    gp.add_argument("--edge-cap", default="1:5", metavar="LO:HI")
    gp.add_argument("--node-cap", default="0:5", metavar="LO:HI")
    gp.add_argument("--amount", default=None, metavar="LO:HI",
                    help="random: demand sizes (default: uncapped)")
    gp.add_argument("--sets", help="cover gadgets: 'a b;b c' (; separates sets)")
    gp.add_argument("--universe", help="cover gadgets: defaults to union of sets")
    gp.add_argument("--k", type=int, help="maxkcover: number of sets to buy")
    gp.add_argument("--edges", help="graph gadgets: 'a-b b-c c-a'")
    gp.add_argument("-o", "--output", required=True)
    gp.set_defaults(func=_cmd_gen)

    cp = sub.add_parser("compare", help="capacity sweep across algorithms")
    cp.add_argument("--input", required=True, metavar="F")
    cp.add_argument("--sweep", required=True, metavar="LO:HI:STEP")
    cp.add_argument("--dist", choices=("all", "half"), default="all")
    cp.add_argument("--algs", default=",".join(KNOWN_ALGS),
                    help="comma list from: " + ", ".join(KNOWN_ALGS))
    cp.add_argument("--epsilon", type=float, default=0.1)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--repetitions", type=int, default=1)
    cp.add_argument("-o", "--output", required=True, metavar="CSV")
    cp.set_defaults(func=_cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        # covers malformed instance text, bad flags, missing files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
