import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmplan.assign import (
    UNASSIGNED,
    AssignError,
    Assignment,
    ConstraintSet,
    FwConfig,
    RelaxedAssignment,
    ScoreTable,
    amax_assign,
    feasible,
    fw_line_search,
    fw_linear_oracle,
    greedy_round,
    lp_relax_solve,
    objective_value,
    quad_relax_solve,
    round_quad,
)
from swarmplan.assign.network import TransportLp
from swarmplan.assign.types import FEAS_EPS
from brute_force import brute_force_assign
from test_assign_golden import battle_instance


def random_instance(rng, n=None, m=None, with_g=False, integer_u=False):
    n = n or rng.integers(1, 6)
    m = m or rng.integers(1, 6)
    h = rng.normal(size=(n, m))
    g = rng.normal(size=(m, m)) * 0.5 if with_g else None
    mu = np.ones((n, m))
    if integer_u:
        u = rng.integers(0, n + 1, size=m).astype(float)
    else:
        u = rng.uniform(0, n, size=m)
    return ScoreTable(h, g), ConstraintSet(mu, u)


def check_invariants(beta, cons: ConstraintSet, eps: float = FEAS_EPS) -> bool:
    """beta is a relaxed assignment within eps: entries in [0, 1], each
    agent's row summing to at most 1 and each task's load to at most u."""
    b = np.asarray(beta, dtype=float)
    return bool(np.all(b >= -eps) and np.all(b <= 1 + eps) and np.all(b.sum(axis=1) <= 1 + eps)
                and np.all((cons.mu * b).sum(axis=0) <= cons.u + eps))


class TestAmax:
    def test_simple(self):
        assert list(amax_assign(ScoreTable([[2, 1], [0.5, 3]])).target) == [0, 1]

    def test_tie_lowest_index(self):
        assert list(amax_assign(ScoreTable([[1, 1]])).target) == [0]

    def test_matches_row_scan_oracle(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 10))
        expected = [max(range(10), key=lambda j: (h[i, j], -j)) for i in range(5)]
        assert list(amax_assign(ScoreTable(h)).target) == expected


class TestObjectiveValue:
    def test_single_linear_term(self):
        a = Assignment([0])
        assert objective_value(a, ScoreTable([[3.0, 0.0]])) == 3.0

    def test_quadratic_self_pairs(self):
        # both agents on task 0, g = [[-1]]: (beta00+beta10)^2 * -1 = -4
        a = Assignment([0, 0])
        scores = ScoreTable(np.zeros((2, 1)), [[-1.0]])
        assert objective_value(a, scores) == -4.0

    def test_matches_quadruple_loop(self):
        rng = np.random.default_rng(1)
        beta = rng.uniform(0, 0.33, size=(3, 3))
        h = rng.normal(size=(3, 3))
        g = rng.normal(size=(3, 3))
        expected = sum(beta[i, j] * h[i, j] for i in range(3) for j in range(3))
        expected += sum(
            beta[i, j] * beta[k, l] * g[j, l]
            for i in range(3) for j in range(3) for k in range(3) for l in range(3)
        )
        got = objective_value(RelaxedAssignment(beta), ScoreTable(h, g))
        assert got == pytest.approx(expected, abs=1e-12)


class TestFeasible:
    def test_unassigned_ok(self):
        cons = ConstraintSet(np.ones((2, 1)), [1.0])
        assert feasible(Assignment([0, UNASSIGNED]), cons)

    def test_over_capacity(self):
        cons = ConstraintSet(np.ones((2, 1)), [1.0])
        assert not feasible(Assignment([0, 0]), cons)

    def test_contribution_sum(self):
        cons = ConstraintSet([[6.0], [6.0]], [10.0])
        assert not feasible(Assignment([0, 0]), cons)


class TestBruteForce:
    def test_capacity_one_picks_best_pair(self):
        scores = ScoreTable([[5, 4], [5, 0]])
        cons = ConstraintSet(np.ones((2, 2)), [1.0, 1.0])
        best = brute_force_assign(scores, cons)
        assert objective_value(best, scores) == 9.0

    def test_zero_capacity_all_unassigned(self):
        scores = ScoreTable(np.ones((2, 2)), np.diag([1.0, 1.0]))
        cons = ConstraintSet(np.ones((2, 2)), [0.0, 0.0])
        best = brute_force_assign(scores, cons)
        assert all(t == UNASSIGNED for t in best.target)
        assert objective_value(best, scores) == 0.0

    def test_negative_score_prefers_unassigned(self):
        scores = ScoreTable([[-1.0]])
        cons = ConstraintSet([[1.0]], [1.0])
        best = brute_force_assign(scores, cons)
        assert best.target[0] == UNASSIGNED

    def test_budget_error(self):
        scores = ScoreTable(np.zeros((30, 5)))
        cons = ConstraintSet(np.ones((30, 5)), np.full(5, 30.0))
        with pytest.raises(AssignError):
            brute_force_assign(scores, cons)


class TestLpRelax:
    def test_capacity_forces_single_agent(self):
        scores = ScoreTable([[1.0], [2.0]])
        cons = ConstraintSet(np.ones((2, 1)), [1.0])
        relaxed = lp_relax_solve(scores, cons)
        np.testing.assert_allclose(relaxed.beta, [[0.0], [1.0]], atol=1e-9)

    def test_constrained_beats_greedy(self):
        # frozen from the enumeration oracle: best feasible 0/1 assignment is
        # a0->task1, a1->task0 for value 9, not the infeasible 5+5
        scores = ScoreTable([[5.0, 4.0], [5.0, 0.0]])
        cons = ConstraintSet(np.ones((2, 2)), [1.0, 1.0])
        relaxed = lp_relax_solve(scores, cons)
        assert objective_value(relaxed, scores) == pytest.approx(9.0, abs=1e-6)

    def test_inactive_constraints_match_amax(self):
        rng = np.random.default_rng(2)
        scores = ScoreTable(rng.uniform(0.1, 1.0, size=(4, 3)))
        cons = ConstraintSet(np.ones((4, 3)), np.full(3, 4.0))
        relaxed = lp_relax_solve(scores, cons)
        amax_obj = objective_value(amax_assign(scores), scores)
        assert objective_value(relaxed, scores) == pytest.approx(amax_obj, abs=1e-6)

    def test_relaxation_dominates_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, cons = random_instance(rng)
            lp_obj = objective_value(lp_relax_solve(scores, cons), scores)
            bf_obj = objective_value(brute_force_assign(scores, cons), scores)
            assert lp_obj >= bf_obj - 1e-6

    def test_invariants_hold(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores, cons = random_instance(rng)
            relaxed = lp_relax_solve(scores, cons)
            assert check_invariants(relaxed.beta, cons)


class TestFwLinearOracle:
    def test_same_as_lp_on_scores(self):
        rng = np.random.default_rng(5)
        scores, cons = random_instance(rng, n=3, m=4)
        a = fw_linear_oracle(scores.h, cons)
        b = lp_relax_solve(scores, cons)
        assert objective_value(a, scores) == pytest.approx(objective_value(b, scores), abs=1e-9)

    def test_all_negative_gradient_gives_zero(self):
        cons = ConstraintSet(np.ones((3, 3)), np.ones(3))
        v = fw_linear_oracle(-np.ones((3, 3)), cons)
        np.testing.assert_array_equal(v.beta, np.zeros((3, 3)))

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(6)
        scores, cons = random_instance(rng, n=3, m=3)
        grad = rng.normal(size=(3, 3))
        vertex = fw_linear_oracle(grad, cons)
        vertex_val = float(np.sum(grad * vertex.beta))
        for _ in range(200):
            pt = rng.uniform(0, 1, size=(3, 3))
            pt *= rng.uniform(0, 1) / max(1.0, pt.sum(axis=1).max())
            load = (cons.mu * pt).sum(axis=0)
            scale = min(1.0, float(np.min(np.where(load > 0, cons.u / np.maximum(load, 1e-12), np.inf))))
            pt *= scale
            assert check_invariants(pt, cons)
            assert vertex_val >= float(np.sum(grad * pt)) - 1e-9


class TestFwLineSearch:
    def test_linear_objective_goes_to_endpoint(self):
        scores = ScoreTable(np.ones((2, 2)))
        cur = RelaxedAssignment(np.zeros((2, 2)))
        vert = RelaxedAssignment(np.eye(2))
        assert fw_line_search(cur, vert, scores) == 1.0

    def test_interior_maximizer(self):
        # 1-D quadratic along the segment with vertex at gamma = 0.3,
        # frozen from the closed form -b/(2a): a = -1, b = 0.6.
        # Construct m=1, g=[[-1]], two agents: d column sum = 1 so a = g = -1.
        # h chosen so b = h.d + d^T(g+g^T)r_cur = 0.6 with r_cur = 0:
        scores = ScoreTable([[0.6], [0.0]], [[-1.0]])
        cur = RelaxedAssignment(np.zeros((2, 1)))
        vert = RelaxedAssignment(np.array([[1.0], [0.0]]))
        assert fw_line_search(cur, vert, scores) == pytest.approx(0.3, abs=1e-9)

    def test_degenerate_direction(self):
        scores = ScoreTable(np.ones((2, 2)), np.zeros((2, 2)))
        cur = RelaxedAssignment(np.full((2, 2), 0.25))
        assert fw_line_search(cur, cur, scores) == 0.0


class TestQuadRelax:
    def test_zero_g_reduces_to_lp(self):
        rng = np.random.default_rng(7)
        scores, cons = random_instance(rng, n=4, m=3)
        quad_scores = ScoreTable(scores.h, np.zeros((3, 3)))
        q = quad_relax_solve(quad_scores, cons)
        lp = lp_relax_solve(scores, cons)
        assert objective_value(q, quad_scores) == pytest.approx(
            objective_value(lp, scores), abs=1e-6
        )

    def test_negative_diag_spreads(self):
        scores = ScoreTable(np.ones((2, 2)), np.diag([-1.0, -1.0]))
        cons = ConstraintSet(np.ones((2, 2)), [2.0, 2.0])
        rounded = round_quad(quad_relax_solve(scores, cons), scores, cons)
        # enumeration oracle over all 9 hard assignments: distinct tasks win
        best = brute_force_assign(scores, cons)
        assert objective_value(rounded, scores) == pytest.approx(
            objective_value(best, scores), abs=1e-9
        )
        assert rounded.target[0] != rounded.target[1]

    def test_positive_diag_groups(self):
        scores = ScoreTable(np.ones((2, 2)), np.diag([1.0, 1.0]))
        cons = ConstraintSet(np.ones((2, 2)), [2.0, 2.0])
        rounded = round_quad(quad_relax_solve(scores, cons), scores, cons)
        best = brute_force_assign(scores, cons)
        assert objective_value(best, scores) == 6.0
        assert objective_value(rounded, scores) == pytest.approx(6.0, abs=1e-9)
        assert rounded.target[0] == rounded.target[1]

    def test_monotone_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            scores, cons = random_instance(rng, with_g=True)
            beta = np.zeros((scores.n, scores.m))
            g_sym = scores.g + scores.g.T
            prev = objective_value(RelaxedAssignment(beta), scores)
            for _ in range(25):
                r = beta.sum(axis=0)
                grad = scores.h + (g_sym @ r)[None, :]
                vertex = fw_linear_oracle(grad, cons)
                gamma = fw_line_search(
                    RelaxedAssignment(beta), vertex, scores)
                beta = beta + gamma * (vertex.beta - beta)
                cur = objective_value(RelaxedAssignment(beta), scores)
                assert cur >= prev - 1e-9
                prev = cur

    def test_result_feasible(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            scores, cons = random_instance(rng, with_g=True)
            assert check_invariants(quad_relax_solve(scores, cons).beta, cons)

    def test_stats_report_the_cap_at_80v82(self):
        scores, cons = battle_instance("m80v82", 0)
        stats = {}
        relaxed = quad_relax_solve(scores, cons, stats=stats)
        assert stats["iters"] == 50 and stats["hit_cap"] and not stats["settled"]
        assert stats["pivots"] > stats["iters"]
        assert 0.0 < stats["rel_gap"] < 1.0
        np.testing.assert_array_equal(relaxed.beta, quad_relax_solve(scores, cons).beta)

    def test_stats_report_settling_at_80v82(self):
        scores, cons = battle_instance("m80v82", 1)
        stats = {}
        relaxed = quad_relax_solve(scores, cons, stats=stats)
        # the objective rises by less than SETTLE_RISE between steps 9 and 12
        assert stats["settled"] and stats["iters"] == 12 and not stats["hit_cap"]
        assert 0.0 < stats["rel_gap"] < 1.0
        np.testing.assert_array_equal(relaxed.beta, quad_relax_solve(scores, cons).beta)

    def test_stats_report_convergence_before_the_cap(self, monkeypatch):
        # `pivots` sums the pivots of the FW subproblems, one solve per
        # iteration; the rel_gap solve after them is not counted. Every
        # solve here takes two pivots from its greedy start tree.
        counted = []
        solve = TransportLp.solve

        def counting_solve(lp, weights, max_pivots=None):
            before = lp.pivots
            beta = solve(lp, weights, max_pivots)
            counted.append(lp.pivots - before)
            return beta

        monkeypatch.setattr(TransportLp, "solve", counting_solve)
        scores = ScoreTable(np.array([[2.0, 1.9], [2.0, 0.0]]), np.diag([1.0, 1.0]))
        cons = ConstraintSet(np.ones((2, 2)), [1.0, 1.0])
        stats = {}
        quad_relax_solve(scores, cons, stats=stats)
        assert stats["iters"] < 50 and not stats["hit_cap"] and not stats["settled"]
        assert min(counted) > 0 and len(counted) == stats["iters"] + 1
        assert stats["pivots"] == sum(counted[:-1])
        assert stats["rel_gap"] == pytest.approx(0.0, abs=1e-9)


class TestGreedyRound:
    def test_identity_on_integral(self):
        rng = np.random.default_rng(10)
        scores, cons = random_instance(rng, n=4, m=4, integer_u=True)
        hard = brute_force_assign(scores, cons)
        beta = hard.to_matrix(4)
        rounded = greedy_round(RelaxedAssignment(beta), scores, cons)
        np.testing.assert_array_equal(rounded.target, hard.target)

    def test_saturation(self):
        scores = ScoreTable(np.zeros((3, 1)))
        cons = ConstraintSet([[6.0], [6.0], [6.0]], [10.0])
        relaxed = RelaxedAssignment([[1.0], [0.4], [0.2]])
        rounded = greedy_round(relaxed, scores, cons)
        assert list(rounded.target) == [0, UNASSIGNED, UNASSIGNED]

    def test_integrality_of_lp_rounding(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scores, cons = random_instance(rng, integer_u=True)
            rounded = greedy_round(lp_relax_solve(scores, cons), scores, cons)
            assert feasible(rounded, cons)
            bf = brute_force_assign(scores, cons)
            assert objective_value(rounded, scores) == pytest.approx(
                objective_value(bf, scores), abs=1e-6
            )


class TestDeterminism:
    def test_pipeline_is_deterministic(self):
        rng = np.random.default_rng(12)
        scores, cons = random_instance(rng, with_g=True)
        a1 = quad_relax_solve(scores, cons)
        a2 = quad_relax_solve(scores, cons)
        np.testing.assert_array_equal(a1.beta, a2.beta)
        r1 = greedy_round(a1, scores, cons)
        r2 = greedy_round(a2, scores, cons)
        np.testing.assert_array_equal(r1.target, r2.target)


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1)
)
@settings(max_examples=40, deadline=None)
def test_property_lp_dominates_and_round_feasible(n, m, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, m))
    mu = np.tile(rng.uniform(0.1, 2.0, size=(n, 1)), (1, m))  # the LP needs mu_ij = d_i
    u = rng.uniform(0, 2.0 * n, size=m)
    scores, cons = ScoreTable(h), ConstraintSet(mu, u)
    relaxed = lp_relax_solve(scores, cons)
    assert check_invariants(relaxed.beta, cons)
    rounded = greedy_round(relaxed, scores, cons)
    assert feasible(rounded, cons)
    bf_obj = objective_value(brute_force_assign(scores, cons), scores)
    assert objective_value(relaxed, scores) >= bf_obj - 1e-6


def test_dimension_mismatch_raises():
    scores = ScoreTable(np.zeros((2, 3)))
    cons = ConstraintSet(np.ones((2, 2)), [1.0, 1.0])
    with pytest.raises(AssignError):
        lp_relax_solve(scores, cons)


@pytest.mark.parametrize("field", ["mu", "u"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_constraint_set_rejects_negative_and_non_finite(field, bad):
    """A NaN capacity made `quad` and `lp` return targets that `feasible`
    rejects, and an infinite one made the network simplex warn."""
    mu, u = np.full((2, 3), 2.0), np.ones(3)
    {"mu": mu, "u": u}[field].flat[0] = bad
    with pytest.raises(AssignError, match="nonnegative and finite"):
        ConstraintSet(mu, u)


@pytest.mark.parametrize("kwargs,says", [
    ({"gap_tol": np.nan}, "gap_tol"), ({"gap_tol": np.inf}, "gap_tol"),
    ({"gap_tol": 0.0}, "gap_tol"), ({"max_iters": 2.5}, "max_iters must be an integer"),
    ({"max_iters": True}, "max_iters must be an integer")],
    ids=["nan-gap", "inf-gap", "zero-gap", "float-iters", "bool-iters"])
def test_fw_config_rejects_bad_values(kwargs, says):
    """A NaN gap_tol would switch the gap rule off, and max_iters=2.5 failed
    later in `range`."""
    with pytest.raises(AssignError, match=says):
        FwConfig(**kwargs)
