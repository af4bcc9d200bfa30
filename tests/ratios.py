"""Objective ratios between the algorithms of a capacity sweep."""

from __future__ import annotations

import math

from pflow.harness import RunRecord


def objective_ratio(num: float, den: float) -> float:
    """num/den with the 0/0 grid-point convention pinned to 1."""
    if abs(den) < 1e-12:
        return 1.0 if abs(num) < 1e-12 else math.inf
    return num / den


def ratio_series(records: list[RunRecord], num_alg: str = "naive",
                 den_alg: str = "lp") -> dict[str, float]:
    """Per grid point, the num/den objective ratio (plot-ready)."""
    by_inst: dict[str, dict[str, float]] = {}
    for r in records:
        if r.feasible:
            by_inst.setdefault(r.instance, {})[r.algorithm] = r.objective
    out = {}
    for inst, vals in by_inst.items():
        if num_alg in vals and den_alg in vals:
            out[inst] = objective_ratio(vals[num_alg], vals[den_alg])
    return out
