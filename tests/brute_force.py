"""Exhaustive maximizer over hard assignments: the test oracle that the
procedures' roundings are checked against on instances small enough to
enumerate."""
from __future__ import annotations

import itertools

import numpy as np

from swarmplan.assign import AssignError, Assignment, feasible, objective_value

BRUTE_FORCE_BUDGET = 10**7


def brute_force_assign(scores, cons) -> Assignment:
    """Exhaustive maximizer over all feasible hard assignments.

    Enumerates every target vector in {unassigned, 0, .., m-1}^n; ties are
    broken lexicographically with unassigned ordered first.
    """
    if (scores.n, scores.m) != (cons.n, cons.m):
        raise AssignError(
            f"score table is {scores.n}x{scores.m} but constraints are {cons.n}x{cons.m}"
        )
    n, m = scores.n, scores.m
    if (m + 1) ** n > BRUTE_FORCE_BUDGET:
        raise AssignError(f"instance too large for enumeration: (m+1)^n = {(m + 1) ** n}")
    best_value = -np.inf
    best_target = None
    for combo in itertools.product(range(-1, m), repeat=n):
        assign = Assignment(np.array(combo))
        if not feasible(assign, cons):
            continue
        value = objective_value(assign, scores)
        if value > best_value + 1e-12:
            best_value = value
            best_target = combo
    return Assignment(np.array(best_target))
