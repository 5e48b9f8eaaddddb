"""Named inference procedures: score tables + constraints -> assignment."""
from __future__ import annotations

from .core import (
    amax_assign,
    greedy_round,
    lp_relax_solve,
    matching_assign,
    quad_relax_solve,
    round_quad,
    unit_demand,
)
from .types import Assignment, ConstraintSet, ScoreTable


def infer_amax(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    return amax_assign(scores)


def infer_lp(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    if unit_demand(cons):  # the LP optimum is already a hard assignment
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


def get_procedure(name: str):
    try:
        return INFERENCE_PROCEDURES[name]
    except KeyError:
        raise ValueError(
            f"unknown inference procedure {name!r}; "
            f"expected one of {sorted(INFERENCE_PROCEDURES)}"
        ) from None
