"""Inference procedures: argmax, LP relaxation, Frank-Wolfe QP, rounding,
and the exhaustive oracle.

The LP relaxation has two solvers, chosen by the constraints alone:
  * unit demand (every mu 1, every u a whole number): the polytope is
    totally unimodular, and an exact shortest-augmenting-path matching
    returns its integral optimum directly;
  * row-constant mu (mu_ij = d_i, every battle polytope): x = d * beta
    makes it a transportation problem, which the network simplex in
    `network.py` solves on a spanning-tree basis, with no basis inverse.
One-shot LPs (`lp_relax_solve`, `fw_linear_oracle`) take the first that
applies. Frank-Wolfe keeps one network simplex object across its
iterations, for unit demand too, and every solve starts from a greedy
tree built from its own weights. The matching would be another oracle for unit demand,
whose ties may pick other vertices; it is not used there, so the
iterates stay as they are. Any other mu (no environment builds one) gets
AssignError from every LP procedure; the rounding and `feasible` take
any mu.

Frank-Wolfe (`quad_relax_solve`) stops on the first of three rules: the
relative FW gap falls below `FwConfig.gap_tol`; the objective has
settled (reported as `settled`): it rose by at most SETTLE_RISE of
1 + |objective| over the last SETTLE_PERIOD steps; or
`FwConfig.max_iters` iterations. Plain FW zig-zags between vertices of
the optimal face and rarely meets the gap tolerance at 80v82. The rule
watches the objective, not the rounded decision: with a trained g, the
rounding of the iterate can hold for 20 steps while the objective still
climbs, and then jump to a better vertex.

Conventions shared by every operation:
  * tie-breaks are deterministic (lowest index / highest score) so repeated
    calls on identical inputs return identical results;
  * the quadratic objective sums over all index quadruples, including the
    self-pairs i == k.
"""
from __future__ import annotations

import bisect
from math import inf

import numpy as np

from .network import TransportLp
from .types import (
    FEAS_EPS,
    UNASSIGNED,
    AssignError,
    Assignment,
    ConstraintSet,
    FwConfig,
    RelaxedAssignment,
    ScoreTable,
)

SETTLE_PERIOD = 3  # Frank-Wolfe steps between two settle checks
SETTLE_RISE = 3e-4  # largest objective rise per period, over 1 + |objective|, that is settled


def _check_dims(scores: ScoreTable, cons: ConstraintSet):
    if (scores.n, scores.m) != (cons.n, cons.m):
        raise AssignError(
            f"score table is {scores.n}x{scores.m} but constraints are {cons.n}x{cons.m}"
        )


def _as_beta(assign, m: int) -> np.ndarray:
    if isinstance(assign, Assignment):
        return assign.to_matrix(m)
    if isinstance(assign, RelaxedAssignment):
        return assign.beta
    raise AssignError(f"expected Assignment or RelaxedAssignment, got {type(assign).__name__}")


def amax_assign(scores: ScoreTable) -> Assignment:
    """Assign each agent to its highest-scoring task, ignoring all others."""
    return Assignment(np.argmax(scores.h, axis=1))


def objective_value(assign, scores: ScoreTable) -> float:
    """Linear + quadratic objective of an assignment under a score table."""
    beta = _as_beta(assign, scores.m)
    if beta.shape != scores.h.shape:
        raise AssignError(f"assignment shape {beta.shape} does not match scores {scores.h.shape}")
    value = float(np.sum(beta * scores.h))
    if scores.g is not None:
        r = beta.sum(axis=0)
        value += float(r @ scores.g @ r)
    return value


def feasible(assign: Assignment, cons: ConstraintSet) -> bool:
    """True iff every task's assigned contribution stays within capacity."""
    if assign.n != cons.n:
        raise AssignError(f"assignment has {assign.n} agents, constraints {cons.n}")
    load = np.zeros(cons.m)
    for i, j in enumerate(assign.target):
        if j != UNASSIGNED:
            if not 0 <= j < cons.m:
                raise AssignError(f"target {j} out of range for m={cons.m}")
            load[j] += cons.mu[i, j]
    return bool(np.all(load <= cons.u + FEAS_EPS))


def _lp_solver(cons: ConstraintSet) -> TransportLp:
    """A network simplex for max <weights, beta> over the polytope, reused
    by every solve on it. Raises AssignError unless each agent contributes
    the same mu to every task."""
    if not (cons.mu == cons.mu[:, :1]).all():
        raise AssignError("the LP procedures need a row-constant mu (mu_ij = d_i)")
    return TransportLp(cons.mu[:, 0], cons.u)


def _relaxed_lp(weights: np.ndarray, cons: ConstraintSet) -> RelaxedAssignment:
    """One LP over the polytope: the exact matching for unit demand, else
    the network simplex."""
    if cons.unit_demand:
        target = _match_lanes(weights[None], cons.u[None])[0]
        return RelaxedAssignment(Assignment(target).to_matrix(cons.m))
    return RelaxedAssignment(_lp_solver(cons).solve(weights))


def _augment(cost, row_dual, col_dual, row4col, col4row, start):
    """One shortest augmenting path from the free row `start` (Crouse 2016).

    Dijkstra over the reduced costs cost - row_dual - col_dual, which the
    duals keep nonnegative, and zero on matched edges. Ties go to a free
    column, then to the lowest index. Updates duals and matching in place.

    Every argument is a Python list (cost a list of rows): at the sizes
    rescue runs (about 23 columns at 8x15) a numpy scan of one row costs
    more in per-call overhead than in arithmetic. The list scan is faster
    up to 32x60; the crossover lies between 32x60 and 64x120, beyond
    every rescue size in use. Column i < n is agent i's idle column,
    finite only in row i, so a row scans the task columns and the idle
    columns of the rows scanned so far, in index order.
    """
    n = len(col4row)
    dist = [inf] * len(col_dual)
    path = [-1] * len(col_dual)
    todo = [start, *range(n, len(col_dual))]  # unscanned columns that can be finite
    rows, scanned = [], []
    low = 0.0
    i = start
    while True:
        rows.append(i)
        row, dual = cost[i], row_dual[i]
        best, j, free = inf, -1, False
        for k in todo:
            d = dist[k]
            reduced = low + row[k] - dual - col_dual[k]
            if reduced < d:
                dist[k] = d = reduced
                path[k] = i
            if d < best:
                best, j, free = d, k, row4col[k] < 0
            elif d == best and not free and row4col[k] < 0:
                j, free = k, True
        low = best
        todo.remove(j)
        scanned.append(j)
        if free:
            break
        i = row4col[j]
        bisect.insort(todo, i)  # its idle column joins the scan
    row_dual[start] += low
    for r in rows[1:]:
        row_dual[r] += low - dist[col4row[r]]
    for k in scanned:
        col_dual[k] -= low - dist[k]
    while True:  # flip the path back to `start`
        i = path[j]
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == start:
            break


def matching_assign(scores: ScoreTable, cons: ConstraintSet) -> Assignment:
    """Exact LP optimum for unit-demand constraints (see `ConstraintSet.unit_demand`).

    Task j is repeated min(u_j, n) times and agent i gets a private
    zero-cost "stay unassigned" column i, placed before the tasks so that
    a tie between a task and staying idle leaves the agent idle. The
    min-cost rectangular assignment on cost -h is solved by shortest
    augmenting paths (Jonker & Volgenant 1987, in Crouse's 2016
    rectangular form), warm started by row reduction: each agent takes its
    cheapest column unless an earlier agent holds it, and only the agents
    that conflict are augmented. The augmenting paths run on Python lists
    (see `_augment`), which beat numpy up to 32x60. The g table, if
    present, is ignored.
    """
    _check_dims(scores, cons)
    if not cons.unit_demand:
        raise AssignError("matching_assign needs mu == 1 and whole-number u")
    return Assignment(_match_lanes(scores.h[None], cons.u[None])[0])


def _match_lanes(h, u):
    """`matching_assign` of a stack of L finite (n, m) tables under
    unit-demand capacities u (L, m), without input checks; returns the
    (L, n) targets. The warm start runs once over the whole stack, and
    only the lanes with a conflict build their cost matrix and augment."""
    open_h = np.where(u[:, None, :] >= 1.0, h, -np.inf)
    value = open_h.max(axis=2)
    # each agent's cheapest column: its best open task if that beats
    # idling (ties to the lowest task), else its idle column
    choice = np.where(value > 0, open_h.argmax(axis=2), UNASSIGNED)
    for k, row in enumerate(choice.tolist()):
        picked = [j for j in row if j != UNASSIGNED]
        if len(set(picked)) < len(picked):  # two agents share a first choice
            choice[k] = _augment_lane(h[k], u[k], row)
    return choice


def _augment_lane(h, u, choice):
    """Finish one lane whose agents share a first choice (a task or
    UNASSIGNED per agent), from the row reduction: each agent takes the
    first copy of its choice, or its idle column, unless an earlier agent
    holds it, and the others are augmented."""
    n = len(choice)
    task_of = [UNASSIGNED] * n
    start = []  # first column of each task
    for j, cap in enumerate(u.tolist()):
        start.append(len(task_of))
        task_of += [j] * min(int(cap), n)
    idle = [inf] * n
    cost = [idle + row for row in np.negative(h[:, task_of[n:]]).tolist()]
    for i in range(n):
        cost[i][i] = 0.0

    first = [i if j < 0 else start[j] for i, j in enumerate(choice)]
    row_dual = [cost[i][j] for i, j in enumerate(first)]
    col_dual = [0.0] * len(task_of)
    row4col = [-1] * len(task_of)
    col4row = [-1] * n
    conflicts = []
    for i, j in enumerate(first):
        if row4col[j] < 0:
            row4col[j], col4row[i] = i, j
        else:
            conflicts.append(i)
    for i in conflicts:
        _augment(cost, row_dual, col_dual, row4col, col4row, i)
    return [task_of[j] for j in col4row]


def lp_relax_solve(scores: ScoreTable, cons: ConstraintSet) -> RelaxedAssignment:
    """Solve the linear relaxation of the constrained assignment ILP.

    Unit-demand constraints take the exact matching, whose 0/1 matrix is
    an LP optimum; any other row-constant mu runs the network simplex. A
    mu that is not row-constant raises AssignError. The task-task table
    g, if present, is ignored.
    """
    _check_dims(scores, cons)
    return _relaxed_lp(scores.h, cons)


def fw_linear_oracle(gradient: np.ndarray, cons: ConstraintSet) -> RelaxedAssignment:
    """Vertex of the relaxed polytope maximizing <gradient, beta>."""
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != (cons.n, cons.m):
        raise AssignError(f"gradient shape {gradient.shape} != ({cons.n}, {cons.m})")
    if not np.all(np.isfinite(gradient)):
        raise AssignError("gradient contains non-finite values")
    return _relaxed_lp(gradient, cons)


def fw_line_search(
    current: RelaxedAssignment, vertex: RelaxedAssignment, scores: ScoreTable
) -> float:
    """Exact maximizer of the objective along (1-gamma)*current + gamma*vertex.

    The restriction of the (at most quadratic) objective to the segment is a
    1-D quadratic a*gamma^2 + b*gamma + const, maximized in closed form and
    clamped to [0, 1].
    """
    d = vertex.beta - current.beta
    b_lin = float(np.sum(d * scores.h))
    a_quad = 0.0
    if scores.g is not None:
        r_cur = current.beta.sum(axis=0)
        r_d = d.sum(axis=0)
        a_quad = float(r_d @ scores.g @ r_d)
        b_lin += float(r_d @ (scores.g + scores.g.T) @ r_cur)
    if abs(a_quad) <= 1e-12:
        return 1.0 if b_lin > 0 else 0.0
    if a_quad < 0:
        return float(np.clip(-b_lin / (2.0 * a_quad), 0.0, 1.0))
    # convex along the segment: best endpoint
    return 1.0 if a_quad + b_lin > 0 else 0.0


def quad_relax_solve(
    scores: ScoreTable,
    cons: ConstraintSet,
    cfg: FwConfig | None = None,
    stats: dict | None = None,
) -> RelaxedAssignment:
    """Frank-Wolfe ascent on the quadratic objective over the relaxed polytope.

    Starts from beta = 0 and returns the iterate clipped to [0, 1]. Stops
    on the first of three rules:
      * gap: the FW gap <grad, v - beta> drops below
        cfg.gap_tol * (1 + |objective|) (or the line search takes no step);
      * settle: at every SETTLE_PERIOD-th step, the objective rose by at
        most SETTLE_RISE * (1 + |objective|) since the previous such step,
        so no earlier than step 2 * SETTLE_PERIOD;
      * cap: cfg.max_iters iterations.
    Converges to a local maximum (the objective need not be concave).

    A `stats` dict, when given, receives `iters` (linear subproblems
    solved), `hit_cap` (stopped by the iteration cap), `settled` (stopped
    by the settle rule), `pivots` (LP solver pivots of those subproblems)
    and `rel_gap` (FW gap over 1 + |objective| at the returned point,
    which costs one more subproblem).
    """
    _check_dims(scores, cons)
    if scores.g is None:
        raise AssignError("quad_relax_solve requires a task-task score table g")
    if cfg is None:
        cfg = FwConfig()
    beta = np.zeros((scores.n, scores.m))
    obj = 0.0  # objective at beta
    g_sym = scores.g + scores.g.T
    lp = _lp_solver(cons)  # one object for every FW iteration
    hit_cap = settled = False
    checked = None  # objective at the last settle check
    for iters in range(1, cfg.max_iters + 1):
        r = beta.sum(axis=0)
        grad = scores.h + (g_sym @ r)[None, :]
        vertex = RelaxedAssignment(lp.solve(grad))
        gap = float(np.sum(grad * (vertex.beta - beta)))
        if gap <= cfg.gap_tol * (1.0 + abs(obj)):
            break
        gamma = fw_line_search(RelaxedAssignment(beta), vertex, scores)
        if gamma == 0.0:
            break
        beta = beta + gamma * (vertex.beta - beta)
        obj = objective_value(RelaxedAssignment(beta), scores)
        if iters % SETTLE_PERIOD == 0:
            if checked is not None and obj - checked <= SETTLE_RISE * (1.0 + abs(obj)):
                settled = True
                break
            checked = obj
    else:
        hit_cap = True
    result = RelaxedAssignment(np.clip(beta, 0.0, 1.0))
    if stats is not None:
        stats.update(iters=iters, hit_cap=hit_cap, settled=settled, pivots=lp.pivots)
        grad = scores.h + (g_sym @ result.beta.sum(axis=0))[None, :]
        gap = float(np.sum(grad * (lp.solve(grad) - result.beta)))
        stats["rel_gap"] = gap / (1.0 + abs(objective_value(result, scores)))
    return result


def greedy_round(
    relaxed: RelaxedAssignment, scores: ScoreTable, cons: ConstraintSet
) -> Assignment:
    """Round a fractional assignment to a feasible hard one.

    Agents are visited once, in descending order of their largest relaxed
    entry (ties: lower agent index). Each is placed on the non-saturated task
    with the largest relaxed entry (ties: higher h, then lower task index).
    Agents whose relaxed row is all zero, or for whom every task is
    saturated, stay unassigned.
    """
    _check_dims(scores, cons)
    beta = relaxed.beta
    if beta.shape != (cons.n, cons.m):
        raise AssignError(f"relaxed shape {beta.shape} != ({cons.n}, {cons.m})")
    row_max = beta.max(axis=1)
    cap = cons.u + FEAS_EPS
    load = np.zeros(cons.m)
    target = np.full(cons.n, UNASSIGNED)
    for i in np.argsort(-row_max, kind="stable"):
        if row_max[i] <= 0.0:
            continue
        fits = load + cons.mu[i] <= cap
        if not fits.any():
            continue
        beta_fit = np.where(fits, beta[i], -np.inf)
        j = int(np.argmax(np.where(beta_fit == beta_fit.max(), scores.h[i], -np.inf)))
        target[i] = j
        load[j] += cons.mu[i, j]
    return Assignment(target)


def polish_assignment(
    assign: Assignment, scores: ScoreTable, cons: ConstraintSet, max_passes: int = 10
) -> Assignment:
    """Deterministic single-agent hill climb on the full objective.

    Repeatedly scans agents in index order and applies the best feasible
    single-agent move (including moving to unassigned) that strictly
    improves the objective. Used after rounding a quadratic relaxation,
    where the fractional optimum can be agent-symmetric and plain greedy
    rounding collapses tied agents onto one task.
    """
    _check_dims(scores, cons)
    target = assign.target.copy()
    n, m = cons.n, cons.m
    h, g = scores.h, scores.g
    cap = cons.u + FEAS_EPS
    placed = np.flatnonzero(target != UNASSIGNED)
    load = np.zeros(m)
    np.add.at(load, target[placed], cons.mu[placed, target[placed]])
    if g is not None:
        g_sym = g + g.T
        g_diag = np.diag(g)
        # (g + g.T) @ r for the column sums r of the hard assignment matrix
        g_sym_r = g_sym @ np.bincount(target[placed], minlength=m).astype(float)
    deltas = np.empty(m + 1)
    for _ in range(max_passes):
        improved = False
        for i in range(n):
            old_j = target[i]
            # delta of moving agent i from old_j to each task, then to
            # unassigned: linear part plus r' G r' - r G r with the
            # two-entry change vector, summed term by term in this order;
            # ties prefer the lowest task, then keeping agents on tasks
            leave = 0.0 if old_j == UNASSIGNED else 0.0 - h[i, old_j]
            tasks = leave + h[i]
            if g is not None:
                if old_j != UNASSIGNED:
                    off = g_sym_r[old_j] - g[old_j, old_j]
                    tasks = tasks - off
                    leave = leave - off
                tasks = tasks + (g_sym_r + g_diag)
                if old_j != UNASSIGNED:
                    tasks = tasks - g_sym[old_j]
            deltas[:m] = np.where(load + cons.mu[i] > cap, -np.inf, tasks)
            deltas[m] = leave
            if old_j != UNASSIGNED:
                deltas[old_j] = 0.0
            best_idx = int(np.argmax(deltas))
            best_j = UNASSIGNED if best_idx == m else best_idx
            if deltas[best_idx] > 1e-12 and best_j != old_j:
                if old_j != UNASSIGNED:
                    load[old_j] -= cons.mu[i, old_j]
                    if g is not None:
                        g_sym_r -= g_sym[old_j]
                if best_j != UNASSIGNED:
                    load[best_j] += cons.mu[i, best_j]
                    if g is not None:
                        g_sym_r += g_sym[best_j]
                target[i] = best_j
                improved = True
        if not improved:
            break
    return Assignment(target)


def round_quad(
    relaxed: RelaxedAssignment, scores: ScoreTable, cons: ConstraintSet
) -> Assignment:
    """Rounding used for the quadratic procedure: greedy rounding plus the
    single-move polish, so grouping/spreading preferences encoded in g
    survive discretization."""
    return polish_assignment(greedy_round(relaxed, scores, cons), scores, cons)
