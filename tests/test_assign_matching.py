"""The exact matching path for unit-demand constraints, and direct tests of
the network simplex, the LP engine behind every other row-constant
polytope, against the revised simplex reference in `lp_reference.py`,
which also solves general mu. The LP procedures reject a general mu."""
import itertools
import sys

import numpy as np
import pytest

from swarmplan.assign import (
    UNASSIGNED,
    AssignError,
    ConstraintSet,
    RelaxedAssignment,
    ScoreTable,
    SolverFailure,
    feasible,
    fw_linear_oracle,
    get_procedure,
    greedy_round,
    lp_relax_solve,
    matching_assign,
    objective_value,
    polish_assignment,
    quad_relax_solve,
)
from swarmplan.assign import core, procedures
from swarmplan.assign.network import TransportLp
from swarmplan.learn import RescueLanes, RescueMetaEnv
from swarmplan.nets import init_scoring_model, load_models, score_pairs
from swarmplan.rescue import RescueConfig
from brute_force import brute_force_assign
from lp_reference import _REFACTOR_EVERY, PolytopeLp
from test_assign_core import check_invariants
from test_assign_golden import TRAINED_MODEL, full_coverage_instance


def unit_instance(rng, n, m, u_max=None):
    h = rng.normal(size=(n, m))
    u = rng.integers(0, (n if u_max is None else u_max) + 1, size=m).astype(float)
    return ScoreTable(h), ConstraintSet(np.ones((n, m)), u)


def simplex_rounded(scores, cons):
    """The reference simplex, then the rounding: the LP procedure's path
    for a polytope that is not unit demand."""
    relaxed = RelaxedAssignment(PolytopeLp(cons.mu, cons.u).solve(scores.h))
    return greedy_round(relaxed, scores, cons)


def rescue_observations(n, m, episodes, steps, sigma=0.4, seed=0):
    """(noisy score table, constraints) along rescue episodes driven by the
    exact matching, with a random scoring model."""
    model = init_scoring_model(2, 3, with_g=False, seed=seed)
    rng = np.random.default_rng(seed)
    for episode in range(episodes):
        pool = RescueLanes([RescueMetaEnv(RescueConfig(n, m, seed=seed * 1000 + episode))])
        obs = pool.reset(np.array([0]), [None]).lane(0)
        for _ in range(steps):
            table = score_pairs(model, obs.agent_feats, obs.task_feats)
            noisy = ScoreTable(table.h + rng.normal(0.0, np.sqrt(sigma), table.h.shape))
            yield noisy, obs.cons
            stack, _, done = pool.step(None, matching_assign(noisy, obs.cons).target[None])
            obs = stack.lane(0)
            if done[0]:
                break


class TestUnitDemand:
    def test_detects_unit_mu_and_whole_capacities(self):
        assert ConstraintSet(np.ones((2, 3)), [0.0, 1.0, 5.0]).unit_demand
        assert not ConstraintSet(np.ones((2, 3)), [0.0, 1.5, 5.0]).unit_demand
        assert not ConstraintSet([[1.0, 2.0], [1.0, 1.0]], [1.0, 1.0]).unit_demand

    def test_tested_once_per_set_on_first_use(self):
        cons = ConstraintSet(np.ones((2, 3)), [0.0, 1.0, 5.0])
        assert "unit_demand" not in vars(cons)  # a set that never asks pays nothing
        assert cons.unit_demand and vars(cons)["unit_demand"] is True

    def test_rejects_other_polytopes(self):
        scores = ScoreTable(np.ones((2, 2)))
        with pytest.raises(AssignError):
            matching_assign(scores, ConstraintSet(np.ones((2, 2)), [0.5, 1.0]))
        with pytest.raises(AssignError):
            matching_assign(scores, ConstraintSet(np.ones((2, 3)), [1.0, 1.0, 1.0]))


class TestMatchingAssign:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            scores, cons = unit_instance(rng, n, m)
            if trial % 10 == 0:  # an agent that prefers to stay idle
                scores.h[rng.integers(n)] = -np.abs(scores.h[rng.integers(n)]) - 0.1
            ours = matching_assign(scores, cons)
            assert feasible(ours, cons)
            best = brute_force_assign(scores, cons)
            assert objective_value(ours, scores) == pytest.approx(
                objective_value(best, scores), abs=1e-9)

    def test_more_agents_than_tasks(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            scores, cons = unit_instance(rng, m + int(rng.integers(1, 4)), m, u_max=2)
            ours = matching_assign(scores, cons)
            assert feasible(ours, cons)
            assert objective_value(ours, scores) == pytest.approx(
                objective_value(brute_force_assign(scores, cons), scores), abs=1e-9)

    def test_capacity_above_agent_count(self):
        scores = ScoreTable([[1.0, 0.5], [2.0, -1.0], [0.3, 0.2]])
        cons = ConstraintSet(np.ones((3, 2)), [7.0, 0.0])
        assert list(matching_assign(scores, cons).target) == [0, 0, 0]

    def test_all_negative_rows_stay_unassigned(self):
        scores = ScoreTable([[-1.0, -2.0], [0.5, -0.1], [-0.3, -0.2]])
        cons = ConstraintSet(np.ones((3, 2)), [1.0, 1.0])
        assert list(matching_assign(scores, cons).target) == [UNASSIGNED, 0, UNASSIGNED]

    def test_zero_capacity_everywhere(self):
        scores = ScoreTable(np.ones((3, 4)))
        cons = ConstraintSet(np.ones((3, 4)), np.zeros(4))
        assert list(matching_assign(scores, cons).target) == [UNASSIGNED] * 3

    def test_ties_are_deterministic(self):
        scores = ScoreTable(np.ones((4, 3)))
        cons = ConstraintSet(np.ones((4, 3)), [1.0, 2.0, 0.0])
        first = matching_assign(scores, cons).target
        for _ in range(3):
            np.testing.assert_array_equal(matching_assign(scores, cons).target, first)
        assert objective_value(matching_assign(scores, cons), scores) == 3.0
        # a zero score ties with staying idle, and idle wins
        idle = matching_assign(ScoreTable(np.zeros((2, 2))), ConstraintSet(np.ones((2, 2)), [1.0, 1.0]))
        assert list(idle.target) == [UNASSIGNED, UNASSIGNED]

    def test_matches_scipy_linear_sum_assignment(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2)
        for _ in range(300):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            scores, cons = unit_instance(rng, n, m, u_max=3)
            # independent reduction: capacity copies plus n shared idle columns
            columns = np.repeat(np.arange(m), np.minimum(cons.u, n).astype(int))
            padded = np.hstack([scores.h[:, columns], np.zeros((n, n))])
            rows, cols = optimize.linear_sum_assignment(padded, maximize=True)
            expect = padded[rows, cols].sum()
            assert objective_value(matching_assign(scores, cons), scores) == pytest.approx(
                expect, abs=1e-9)

    def test_lp_relax_solve_returns_the_matching(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, cons = unit_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            relaxed = lp_relax_solve(scores, cons)
            hard = matching_assign(scores, cons)
            np.testing.assert_array_equal(relaxed.beta, hard.to_matrix(cons.m))
            assert check_invariants(relaxed.beta, cons)


def reference_augment(cost, row_dual, col_dual, row4col, col4row, start):
    """One shortest augmenting path on numpy arrays, scanning every column
    of every row: the reference for `core._augment`, which scans lists."""
    ncol = cost.shape[1]
    dist = np.full(ncol, np.inf)
    path = np.empty(ncol, dtype=int)
    remaining = np.ones(ncol, dtype=bool)
    rows = []
    low = 0.0
    i = start
    while True:
        rows.append(i)
        reduced = low + cost[i] - row_dual[i] - col_dual
        closer = remaining & (reduced < dist)
        dist[closer] = reduced[closer]
        path[closer] = i
        open_dist = np.where(remaining, dist, np.inf)
        low = open_dist.min()
        ties = (open_dist == low).nonzero()[0]
        free = ties[row4col[ties] < 0]
        j = int(free[0] if free.size else ties[0])
        remaining[j] = False
        if row4col[j] < 0:
            break
        i = int(row4col[j])
    row_dual[start] += low
    for r in rows[1:]:
        row_dual[r] += low - dist[col4row[r]]
    scanned = ~remaining
    col_dual[scanned] -= low - dist[scanned]
    while True:  # flip the path back to `start`
        i = path[j]
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == start:
            break


def reference_matching(scores, cons):
    """One instance on numpy arrays, with the row-reduction warm start as a
    loop over agents: the reference for `matching_assign`."""
    n = cons.n
    task_of = np.concatenate((np.full(n, UNASSIGNED),
                              np.repeat(np.arange(cons.m), np.minimum(cons.u, n).astype(int))))
    ncol = task_of.size
    cost = np.full((n, ncol), np.inf)
    cost[:, :n][np.diag_indices(n)] = 0.0
    cost[:, n:] = -scores.h[:, task_of[n:]]
    first = cost.argmin(axis=1)
    row_dual = cost[np.arange(n), first]
    col_dual = np.zeros(ncol)
    row4col = np.full(ncol, -1)
    col4row = np.full(n, -1)
    conflicts = []
    for i, j in enumerate(first.tolist()):
        if row4col[j] < 0:
            row4col[j], col4row[i] = i, j
        else:
            conflicts.append(i)
    for i in conflicts:
        reference_augment(cost, row_dual, col_dual, row4col, col4row, i)
    return task_of[col4row]


class TestStackedMatching:
    def test_stack_equals_per_lane_reference(self):
        rng = np.random.default_rng(5)
        augmented = 0
        for trial in range(300):
            lanes = 1 if trial % 5 == 0 else int(rng.integers(2, 7))
            if trial % 3:
                n, m = int(rng.integers(1, 8)), int(rng.integers(1, 6))  # n > m often
            else:
                n, m = ((16, 30), (32, 60))[trial % 2]
            if trial % 2:  # half-integer scores: exact ties between tasks and with idling
                h = rng.integers(-2, 4, size=(lanes, n, m)) / 2.0
            else:
                h = rng.normal(size=(lanes, n, m))
            u = rng.integers(0, 4, size=(lanes, m)).astype(float)  # 0, 1 and >= 2
            cons = [ConstraintSet(np.ones((n, m)), u[k]) for k in range(lanes)]
            stacked = procedures.infer_stack("lp", h, None, np.ones((lanes, n, m)), u)
            assert stacked.shape == (lanes, n)
            for k in range(lanes):
                want = reference_matching(ScoreTable(h[k]), cons[k])
                np.testing.assert_array_equal(stacked[k], want)
                np.testing.assert_array_equal(
                    matching_assign(ScoreTable(h[k]), cons[k]).target, want)
                best = np.where(u[k] > 0, h[k], -np.inf).max(axis=1)
                firsts = np.where(u[k] > 0, h[k], -np.inf).argmax(axis=1)[best > 0]
                augmented += len(set(firsts.tolist())) < firsts.size
        assert augmented > 100  # many lanes leave the warm start

    def test_infer_stack_keeps_per_lane_results_on_mixed_stacks(self):
        rng = np.random.default_rng(6)
        infer = get_procedure("lp")
        mixed = 0
        for trial in range(40):
            lanes, n, m = 4, int(rng.integers(1, 6)), int(rng.integers(1, 6))
            h = rng.normal(size=(lanes, n, m))
            u = rng.integers(0, 3, size=(lanes, m)).astype(float)
            mu = np.ones((lanes, n, m))
            u[rng.random(lanes) < 0.4, 0] += 0.5  # not whole: the simplex and rounding
            mu[rng.random(lanes) < 0.3, 0, :] = 2.0  # not unit mu, still row-constant
            cons = [ConstraintSet(mu[k], u[k]) for k in range(lanes)]
            mixed += 0 < sum(lane.unit_demand for lane in cons) < lanes
            for k, got in enumerate(procedures.infer_stack("lp", h, None, mu, u)):
                np.testing.assert_array_equal(got, infer(ScoreTable(h[k]), cons[k]).target)
        assert mixed > 20


class TestInferLpOnRescue:
    @pytest.mark.parametrize("n,m", [(2, 4), (8, 15)])
    def test_targets_equal_simplex_then_rounding(self, n, m):
        infer = get_procedure("lp")
        count = 0
        for scores, cons in rescue_observations(n, m, episodes=4, steps=40):
            assert cons.unit_demand
            np.testing.assert_array_equal(infer(scores, cons).target,
                                          simplex_rounded(scores, cons).target)
            count += 1
        assert count >= 40

    def test_never_builds_a_simplex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the unit-demand path ran an LP solver or the rounding")

        monkeypatch.setattr(core, "TransportLp", refuse)
        monkeypatch.setattr(procedures, "greedy_round", refuse)
        infer = get_procedure("lp")
        for scores, cons in rescue_observations(8, 15, episodes=1, steps=10):
            assert feasible(infer(scores, cons), cons)
            lp_relax_solve(scores, cons)


def _switches_to_bland(lp, weights):
    """Solve, recording whether the solve ever ran on Bland's rule."""
    seen = []
    code = PolytopeLp.solve.__code__

    def local(frame, event, arg):
        if frame.f_locals.get("use_bland"):
            seen.append(True)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    sys.settrace(tracer)
    try:
        beta = lp.solve(weights)
    finally:
        sys.settrace(None)
    return beta, bool(seen)


# Both LP engines on one constraint set; TransportLp needs row-constant mu.
SOLVERS = {
    "PolytopeLp": lambda cons: PolytopeLp(cons.mu, cons.u),
    "TransportLp": lambda cons: TransportLp(cons.mu[:, 0], cons.u),
}


def row_constant_instance(rng):
    """Row-constant constraints with fractional d and u, some agents with
    d = 0 and some tasks with u = 0. Half the instances round d and u to
    halves, so that flows tie and pivots are primal degenerate."""
    n, m = (int(x) for x in rng.integers(1, 9, size=2))
    d = rng.uniform(0.2, 2.0, size=n)
    d[rng.random(n) < 0.2] = 0.0
    u = rng.uniform(0.0, 3.0, size=m)
    u[rng.random(m) < 0.25] = 0.0
    if rng.random() < 0.5:
        d, u = np.round(2 * d) / 2, np.round(2 * u) / 2
    return ConstraintSet(np.tile(d[:, None], (1, m)), u)


def random_weights(rng, shape, tied):
    if tied:  # half-integers: many optima and degenerate pivots
        return rng.integers(-2, 4, size=shape) / 2.0
    return rng.normal(size=shape)


class TestPolytopeLp:
    def test_objective_equals_matching(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            scores, cons = unit_instance(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            beta = PolytopeLp(cons.mu, cons.u).solve(scores.h)
            assert check_invariants(beta, cons)
            assert float(np.sum(beta * scores.h)) == pytest.approx(
                objective_value(matching_assign(scores, cons), scores), abs=1e-9)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_pivot_budget_raises(self, solver):
        # The network simplex's greedy start puts agent 0 on task 0, where
        # agent 1 belongs; both solvers need at least two pivots from there
        cons = ConstraintSet(np.ones((2, 2)), [1.0, 1.0])
        weights = np.array([[2.0, 1.9], [2.0, 0.0]])
        with pytest.raises(SolverFailure):
            SOLVERS[solver](cons).solve(weights, max_pivots=1)
        beta = SOLVERS[solver](cons).solve(weights, max_pivots=4)
        np.testing.assert_allclose(beta, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_degenerate_run_stays_optimal(self, solver):
        # Tasks 0-4 have capacity 0, so every pivot into them is degenerate.
        # Agent k has mu = 3**(4-k) and score (k+1) * mu: the score/mu ratio
        # rises as mu falls, so Dantzig's rule walks each such task through
        # all 5 agents, 25 degenerate pivots against a switch at rows + 10
        # = 21. Task 5 holds the optimum, scaled down so it enters last.
        # The simplex gets there on Bland's rule; the network simplex's
        # strongly feasible trees need none.
        n, m = 5, 6
        mu = np.tile((3.0 ** np.arange(n - 1, -1, -1))[:, None], (1, m))
        weights = mu * np.arange(1, n + 1)[:, None]
        weights[:, -1] *= 0.01
        cons = ConstraintSet(mu, np.r_[np.zeros(m - 1), 1.0])
        lp = SOLVERS[solver](cons)
        if solver == "PolytopeLp":
            beta, used_bland = _switches_to_bland(lp, weights)
            assert used_bland
        else:
            beta = lp.solve(weights)
        scores = ScoreTable(weights)
        best = brute_force_assign(scores, cons)
        assert float(np.sum(beta * weights)) == pytest.approx(
            objective_value(best, scores), abs=1e-12)
        np.testing.assert_allclose(beta, best.to_matrix(m), atol=1e-12)

    def test_tree_objective_equals_simplex_cold_and_warm(self):
        # Each instance: six solves with new weights on the same two solver
        # objects. The simplex warm-starts each from the previous optimum;
        # the tree starts each from a greedy tree built from its weights.
        rng = np.random.default_rng(7)
        for trial in range(200):
            cons = row_constant_instance(rng)
            tree, simplex_lp = SOLVERS["TransportLp"](cons), SOLVERS["PolytopeLp"](cons)
            for _ in range(6):
                weights = random_weights(rng, (cons.n, cons.m), tied=trial % 2 == 1)
                beta = tree.solve(weights)
                assert check_invariants(beta, cons)
                assert float(np.sum(beta * weights)) == pytest.approx(
                    float(np.sum(simplex_lp.solve(weights) * weights)), abs=1e-9)

    @pytest.mark.parametrize("case", ["untied", "tied", "m80v82"])
    def test_solve_does_not_depend_on_the_previous_solve(self, case):
        # A solve after another on one object equals the same solve on a
        # fresh object, beta bit for bit and pivot for pivot. The m80v82
        # case solves the first two Frank-Wolfe subproblems of a
        # full-coverage table.
        if case == "m80v82":
            scores, cons = full_coverage_instance(101000, load_models(TRAINED_MODEL)[0])
            vertex = SOLVERS["TransportLp"](cons).solve(scores.h)
            grad = scores.h + ((scores.g + scores.g.T) @ vertex.sum(axis=0))[None, :]
            instances = [(cons, scores.h, grad)]
        else:
            rng = np.random.default_rng(11)
            instances = []
            for _ in range(100):
                cons = row_constant_instance(rng)
                instances.append((cons, *(random_weights(rng, (cons.n, cons.m), case == "tied")
                                          for _ in range(2))))
        for cons, first, second in instances:
            used, fresh = SOLVERS["TransportLp"](cons), SOLVERS["TransportLp"](cons)
            used.solve(first)
            before = used.pivots
            beta = used.solve(second)
            assert beta.tobytes() == fresh.solve(second).tobytes()
            assert used.pivots - before == fresh.pivots

    def test_tree_stays_strongly_feasible_at_every_pivot(self):
        # Agent arcs point toward the root, so a strongly feasible tree
        # keeps flow on each of them. A budget of k pivots stops a solve
        # after its k-th pivot and leaves that tree behind; a budget of 0
        # leaves the greedy start tree.
        rng = np.random.default_rng(9)
        for _ in range(100):
            cons = row_constant_instance(rng)
            weights = random_weights(rng, (cons.n, cons.m), tied=True)
            for budget in itertools.count(0):
                tree = SOLVERS["TransportLp"](cons)
                try:
                    tree.solve(weights, max_pivots=budget)
                except SolverFailure:
                    assert all(f > 0.0 for f in tree.flow[:tree.na])
                else:
                    break

    def test_tree_objective_equals_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(8)
        for _ in range(60):
            cons = row_constant_instance(rng)
            n, m = cons.n, cons.m
            weights = rng.normal(size=(n, m))
            rows = np.vstack([np.kron(np.eye(n), np.ones((1, m))),
                              np.kron(cons.mu[:, :1].T, np.eye(m))])
            highs = linprog(-weights.ravel(), A_ub=rows, b_ub=np.r_[np.ones(n), cons.u],
                            bounds=(0, None), method="highs")
            assert highs.status == 0
            beta = SOLVERS["TransportLp"](cons).solve(weights)
            assert float(np.sum(beta * weights)) == pytest.approx(-highs.fun, abs=1e-7)

    def test_solver_follows_the_constraints(self):
        row_constant = ConstraintSet(np.tile([[2.0], [0.0], [1.5]], (1, 4)), np.ones(4))
        general = ConstraintSet(np.arange(1.0, 13.0).reshape(3, 4), np.ones(4))
        assert isinstance(core._lp_solver(row_constant), TransportLp)
        with pytest.raises(AssignError):
            core._lp_solver(general)
        # every LP procedure rejects the general set at its boundary ...
        scores = ScoreTable(np.arange(12.0).reshape(3, 4) / 6.0, np.eye(4))
        for solve in (lambda: lp_relax_solve(scores, general),
                      lambda: fw_linear_oracle(scores.h, general),
                      lambda: quad_relax_solve(scores, general),
                      lambda: get_procedure("lp")(scores, general),
                      lambda: get_procedure("quad")(scores, general)):
            with pytest.raises(AssignError):
                solve()
        # ... while the rounding and the feasibility check still take it
        relaxed = RelaxedAssignment(PolytopeLp(general.mu, general.u).solve(scores.h))
        rounded = polish_assignment(greedy_round(relaxed, scores, general), scores, general)
        assert feasible(rounded, general)

    def test_basis_inverse_stays_exact_across_a_refactor(self):
        # Warm-started solves chained on one solver object until the
        # basis inverse has been refactored. The inverse carried by
        # rank-1 updates must still invert the basis.
        rng = np.random.default_rng(5)
        n, m = 12, 10
        cons = ConstraintSet(rng.uniform(0.2, 2.0, size=(n, m)), rng.uniform(0.5, 3.0, size=m))
        lp = PolytopeLp(cons.mu, cons.u)
        drifts, since_refactor = [], []
        while lp.pivots < 2 * _REFACTOR_EVERY:
            beta = lp.solve(rng.normal(size=(n, m)))
            assert check_invariants(beta, cons)
            B = np.zeros((lp.rows, lp.rows))
            for k, var in enumerate(lp.basis):
                if var < lp.nm:
                    i, j = divmod(int(var), m)
                    B[i, k], B[n + j, k] = 1.0, cons.mu[i, j]
                else:
                    B[var - lp.nm, k] = 1.0
            drifts.append(np.abs(lp.B_inv @ B - np.eye(lp.rows)).max())
            since_refactor.append(lp._pivots_since_refactor)
        refactored = int(np.argmax(np.diff(since_refactor) < 0)) + 1
        assert refactored > 0, "no refactor happened"
        assert since_refactor[refactored - 1] > _REFACTOR_EVERY // 2
        assert max(drifts[:refactored]) < 1e-9
        assert max(drifts[refactored:]) < 1e-9
