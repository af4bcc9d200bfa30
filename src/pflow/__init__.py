"""Flows that must pass through a processing node before delivery.

Solvers for the arc relaxation, walk decomposition, a width-free
multiplicative-weights approximation, purchase planning for processing
capacity, instance generators, and a sweep harness.
"""

from .decompose import DecompositionError, decompose, extraction_bound
from .generators import (gen_random_instance, gen_random_purchase,
                         gen_reduction_instance)
from .harness import RunRecord, SweepSpec, compare_runs, write_csv
from .instance_io import (InstanceFormatError, ParsedInstance, emit_instance,
                          emit_solution, instance_text, parse_instance,
                          parse_instance_text, parse_solution,
                          solution_document)
from .lp import (LPModel, LPResult, Objective, build_edge_lp, solve_edge_lp,
                 solve_lp, write_mps)
from .model import (Demand, EdgeFlowSolution, FlowNetwork, InfeasibleError,
                    PurchaseInstance, PurchaseSolution, ResourceLimitError,
                    StructuralError, WalkEntry, WalkFlowSolution,
                    validate_instance, verify_walk_solution)
from .mwu import MWUConfig, mwu_solve
from .naive import naive_solve
from .purchase import (PurchaseLPSolution, greedy_budgeted_single_source,
                       round_budgeted_purchase, round_min_purchase,
                       rounding_rounds, solve_purchase_lp,
                       validate_purchase_instance)

__version__ = "0.1.0"

__all__ = [
    "Demand", "DecompositionError", "EdgeFlowSolution", "FlowNetwork",
    "InfeasibleError", "InstanceFormatError", "LPModel", "LPResult",
    "MWUConfig", "Objective", "ParsedInstance", "PurchaseInstance",
    "PurchaseLPSolution", "PurchaseSolution", "ResourceLimitError",
    "RunRecord", "StructuralError", "SweepSpec", "WalkEntry",
    "WalkFlowSolution", "build_edge_lp", "compare_runs", "decompose",
    "emit_instance", "emit_solution", "extraction_bound",
    "gen_random_instance", "gen_random_purchase", "gen_reduction_instance",
    "greedy_budgeted_single_source", "instance_text", "mwu_solve", "naive_solve", "parse_instance",
    "parse_instance_text", "parse_solution",
    "round_budgeted_purchase", "round_min_purchase", "rounding_rounds",
    "solution_document", "solve_edge_lp",
    "solve_lp", "solve_purchase_lp", "validate_instance",
    "validate_purchase_instance", "verify_walk_solution", "write_csv",
    "write_mps",
]
