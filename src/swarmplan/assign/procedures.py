"""Named inference procedures: score tables + constraints -> assignment."""
from __future__ import annotations

import numpy as np

from .core import (
    _match_lanes,
    amax_assign,
    greedy_round,
    lp_relax_solve,
    matching_assign,
    quad_relax_solve,
    round_quad,
)
from .types import Assignment, ConstraintSet, ScoreTable, unit_demand


def infer_amax(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    return amax_assign(scores)


def infer_lp(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    if cons.unit_demand:  # the LP optimum is already a hard assignment
        return matching_assign(scores, cons)
    return greedy_round(lp_relax_solve(scores, cons), scores, cons)


def infer_quad(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    if scores.g is None:  # no quadratic term: identical to the LP procedure
        return infer_lp(scores, cons)
    return round_quad(quad_relax_solve(scores, cons), scores, cons)


INFERENCE_PROCEDURES = {
    "amax": infer_amax,
    "lp": infer_lp,
    "quad": infer_quad,
}


def infer_stack(name: str, h, g, mu, u) -> np.ndarray:
    """Procedure `name` on a stack of L lanes with equal (n, m).

    h is (L, n, m) and g (L, m, m) or None, all finite; the L polytopes
    have contributions mu (L, n, m) and capacities u (L, m). Returns the
    (L, n) targets: row k is what the procedure gives for lane k alone.
    The LP procedure matches a stack whose lanes are all unit
    demand (every rescue stack) in one pass of the exact matching; any
    other stack runs lane by lane, on ConstraintSets of its rows.
    """
    procedure = get_procedure(name)
    if procedure is infer_lp and unit_demand(mu, u):
        return _match_lanes(h, u)
    return np.array([procedure(ScoreTable(h[k], None if g is None else g[k]),
                               ConstraintSet(mu[k], u[k])).target for k in range(len(h))])


def get_procedure(name: str):
    try:
        return INFERENCE_PROCEDURES[name]
    except KeyError:
        raise ValueError(
            f"unknown inference procedure {name!r}; "
            f"expected one of {sorted(INFERENCE_PROCEDURES)}"
        ) from None
