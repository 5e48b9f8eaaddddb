"""Named inference procedures: score tables + constraints -> assignment."""
from __future__ import annotations

import numpy as np

from .core import (
    _check_dims,
    _match_lanes,
    amax_assign,
    greedy_round,
    lp_relax_solve,
    quad_relax_solve,
    round_quad,
)
from .types import Assignment, ConstraintSet, ScoreTable


def infer_amax(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    return amax_assign(scores)


def infer_lp(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    if cons.unit_demand:  # the LP optimum is already a hard assignment
        _check_dims(scores, cons)
        return Assignment(_match_lanes(scores.h[None], cons.u[None])[0])
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


def infer_stack(name: str, h, g, cons) -> list:
    """Procedure `name` on a stack of L lanes with equal (n, m).

    h is (L, n, m) and g (L, m, m) or None, all finite; cons holds the L
    ConstraintSets. Returns one Assignment per lane, the one the procedure
    gives for that lane alone. The LP procedure reads each set's cached
    unit-demand flag and solves its unit-demand lanes with one stacked
    `matching_assign`.
    """
    procedure = get_procedure(name)
    out = [None] * len(cons)
    if procedure is infer_lp:
        unit = [k for k, lane in enumerate(cons) if lane.unit_demand]
        if unit:
            u = np.array([cons[k].u for k in unit])
            # a mixed stack matches its unit-demand lanes only
            lanes = h if len(unit) == len(cons) else h[unit]
            for k, target in zip(unit, _match_lanes(lanes, u)):
                out[k] = Assignment(target)
    for k, lane in enumerate(cons):
        if out[k] is None:
            out[k] = procedure(ScoreTable(h[k], None if g is None else g[k]), lane)
    return out


def get_procedure(name: str):
    try:
        return INFERENCE_PROCEDURES[name]
    except KeyError:
        raise ValueError(
            f"unknown inference procedure {name!r}; "
            f"expected one of {sorted(INFERENCE_PROCEDURES)}"
        ) from None
