"""The array forms of `greedy_round` and `polish_assignment` against their
one-task-at-a-time loop forms, kept here as references.

Both references visit tasks one by one with Python scalars, exactly as the
rounding was first written. The instances are built to hit every
tie-break: quarter-valued beta and half-valued h and g tie exactly,
small and zero capacities saturate tasks, some loads land exactly on the
capacity bound u + FEAS_EPS, polish starts from targets
with UNASSIGNED agents (and from infeasible ones), and some tables have
no g.
"""
import numpy as np
import pytest

from swarmplan.assign import (
    UNASSIGNED,
    Assignment,
    ConstraintSet,
    RelaxedAssignment,
    ScoreTable,
    greedy_round,
    polish_assignment,
)
from swarmplan.assign.types import FEAS_EPS


def greedy_round_reference(relaxed, scores, cons):
    beta = relaxed.beta
    n, m = cons.n, cons.m
    row_max = beta.max(axis=1)
    order = sorted(range(n), key=lambda i: (-row_max[i], i))
    load = np.zeros(m)
    target = np.full(n, UNASSIGNED)
    for i in order:
        if row_max[i] <= 0.0:
            continue
        best = None
        for j in range(m):
            if load[j] + cons.mu[i, j] > cons.u[j] + FEAS_EPS:
                continue
            key = (beta[i, j], scores.h[i, j], -j)
            if best is None or key > best[0]:
                best = (key, j)
        if best is not None:
            j = best[1]
            target[i] = j
            load[j] += cons.mu[i, j]
    return Assignment(target)


def polish_reference(assign, scores, cons, max_passes=10):
    target = assign.target.copy()
    n, m = cons.n, cons.m
    h, g = scores.h, scores.g
    load = np.zeros(m)
    r = np.zeros(m)
    for i, j in enumerate(target):
        if j != UNASSIGNED:
            load[j] += cons.mu[i, j]
            r[j] += 1.0
    g_sym_r = (g + g.T) @ r if g is not None else None
    for _ in range(max_passes):
        improved = False
        for i in range(n):
            old_j = target[i]
            deltas = np.empty(m + 1)
            for idx, new_j in enumerate([*range(m), UNASSIGNED]):
                if new_j == old_j:
                    deltas[idx] = 0.0
                    continue
                if new_j != UNASSIGNED and load[new_j] + cons.mu[i, new_j] > cons.u[new_j] + FEAS_EPS:
                    deltas[idx] = -np.inf
                    continue
                delta = 0.0
                if old_j != UNASSIGNED:
                    delta -= h[i, old_j]
                if new_j != UNASSIGNED:
                    delta += h[i, new_j]
                if g is not None:
                    if old_j != UNASSIGNED:
                        delta -= g_sym_r[old_j] - g[old_j, old_j]
                    if new_j != UNASSIGNED:
                        delta += g_sym_r[new_j] + g[new_j, new_j]
                    if old_j != UNASSIGNED and new_j != UNASSIGNED:
                        delta -= g[old_j, new_j] + g[new_j, old_j]
                deltas[idx] = delta
            best_idx = int(np.argmax(deltas))
            best_j = UNASSIGNED if best_idx == m else best_idx
            if deltas[best_idx] > 1e-12 and best_j != old_j:
                if old_j != UNASSIGNED:
                    load[old_j] -= cons.mu[i, old_j]
                    r[old_j] -= 1.0
                    if g is not None:
                        g_sym_r -= g[old_j, :] + g[:, old_j]
                if best_j != UNASSIGNED:
                    load[best_j] += cons.mu[i, best_j]
                    r[best_j] += 1.0
                    if g is not None:
                        g_sym_r += g[best_j, :] + g[:, best_j]
                target[i] = best_j
                improved = True
        if not improved:
            break
    return Assignment(target)


def rounding_instance(rng):
    """Scores, constraints and a relaxed beta, most of them full of ties."""
    n, m = (int(x) for x in rng.integers(1, 10, size=2))
    tied = rng.random() < 0.7
    if rng.random() < 0.5:
        mu = np.tile(rng.integers(1, 4, size=(n, 1)) / 2.0, (1, m))
    else:
        mu = rng.uniform(0.2, 2.0, size=(n, m))
    u = rng.integers(0, 4, size=m) / 2.0 if tied else rng.uniform(0.0, 3.0, size=m)
    if tied and rng.random() < 0.5:
        u[u > 0] -= FEAS_EPS  # a half-valued load then fills a task exactly to u + FEAS_EPS
    if tied:
        h = rng.integers(-2, 3, size=(n, m)) / 2.0
        g = rng.integers(-2, 3, size=(m, m)) / 2.0
        beta = rng.integers(0, 3, size=(n, m)) / 4.0
    else:
        h = rng.normal(size=(n, m))
        g = 0.3 * rng.normal(size=(m, m))
        beta = rng.random((n, m)) * (rng.random((n, m)) < 0.6)
    beta[rng.random(n) < 0.2] = 0.0
    if rng.random() < 0.3:
        g = None
    return ScoreTable(h, g), ConstraintSet(mu, u), RelaxedAssignment(beta)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_round_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        scores, cons, relaxed = rounding_instance(rng)
        np.testing.assert_array_equal(greedy_round(relaxed, scores, cons).target,
                                      greedy_round_reference(relaxed, scores, cons).target)


@pytest.mark.parametrize("seed", range(4))
def test_polish_matches_loop_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(150):
        scores, cons, relaxed = rounding_instance(rng)
        starts = [
            greedy_round_reference(relaxed, scores, cons),
            Assignment(np.full(cons.n, UNASSIGNED)),
            # may overload tasks: polish must agree from any start
            Assignment(rng.integers(-1, cons.m, size=cons.n)),
        ]
        for start in starts:
            np.testing.assert_array_equal(polish_assignment(start, scores, cons).target,
                                          polish_reference(start, scores, cons).target)


def test_polish_matches_reference_with_one_pass():
    rng = np.random.default_rng(200)
    for _ in range(100):
        scores, cons, relaxed = rounding_instance(rng)
        start = Assignment(rng.integers(-1, cons.m, size=cons.n))
        np.testing.assert_array_equal(
            polish_assignment(start, scores, cons, max_passes=1).target,
            polish_reference(start, scores, cons, max_passes=1).target)
