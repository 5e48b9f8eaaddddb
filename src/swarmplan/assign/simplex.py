"""Revised primal simplex specialized to the assignment polytope

    { beta >= 0,  sum_j beta_ij <= 1,  sum_i mu_ij beta_ij <= u_j }.

Row sums <= 1 imply beta <= 1, so only the n + m aggregate rows are
materialized and the all-slack basis is feasible (no phase-1). Every
structural column has at most two nonzeros (a 1 in its agent row and
mu_ij in its task row), which keeps pricing at O(nm) and pivots at
O(rows^2) regardless of the number of variables.

Pricing is Dantzig's rule, falling back to Bland's rule after a run of
degenerate pivots to guarantee termination. The solver object keeps its
basis between solves, so repeated calls with different objectives (the
Frank-Wolfe linear subproblems) warm-start from the previous optimum.
"""
from __future__ import annotations

import numpy as np

from .types import SolverFailure

_TOL = 1e-9
_REFACTOR_EVERY = 300


class PolytopeLp:
    """Reusable simplex state for one constraint set.

    Variable ids: structural beta_ij -> i*m + j; agent-row slack i ->
    nm + i; capacity slack j -> nm + n + j.
    """

    def __init__(self, mu: np.ndarray, u: np.ndarray):
        self.mu = np.asarray(mu, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.n, self.m = self.mu.shape
        self.nm = self.n * self.m
        self.rows = self.n + self.m
        self.total = self.nm + self.rows
        self.b = np.concatenate([np.ones(self.n), self.u])
        self.basis = np.arange(self.nm, self.total)
        self.in_basis = np.zeros(self.total, dtype=bool)
        self.in_basis[self.basis] = True
        self.B_inv = np.eye(self.rows)
        self.xB = self.b.copy()
        self._pivots_since_refactor = 0

    def _column(self, var: int) -> np.ndarray:
        """B_inv times the constraint column of `var`."""
        if var < self.nm:
            i, j = divmod(var, self.m)
            return self.B_inv[:, i] + self.mu[i, j] * self.B_inv[:, self.n + j]
        return self.B_inv[:, var - self.nm].copy()

    def _refactor(self):
        B = np.zeros((self.rows, self.rows))
        for k, var in enumerate(self.basis):
            if var < self.nm:
                i, j = divmod(var, self.m)
                B[i, k] = 1.0
                B[self.n + j, k] += self.mu[i, j]
            else:
                B[var - self.nm, k] = 1.0
        self.B_inv = np.linalg.inv(B)
        self.xB = np.maximum(self.B_inv @ self.b, 0.0)
        self._pivots_since_refactor = 0

    def solve(self, weights: np.ndarray, max_pivots: int | None = None) -> np.ndarray:
        """max <weights, beta> over the polytope; returns beta (n, m).

        Warm-starts from the basis left by the previous solve. Raises
        SolverFailure if the pivot budget is exhausted.
        """
        weights = np.asarray(weights, dtype=float)
        wflat = weights.ravel()
        if max_pivots is None:
            max_pivots = 100 * self.rows + 20 * max(self.n, self.m) ** 2 + 1000

        degenerate_run = 0
        use_bland = False
        cB = np.zeros(self.rows)
        ratios = np.empty(self.rows)
        for pivot in range(max_pivots):
            if self._pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactor()

            structural_basis = self.basis < self.nm
            basic_struct_ids = self.basis[structural_basis]
            cB[:] = 0.0
            cB[structural_basis] = wflat[basic_struct_ids]
            y = cB @ self.B_inv
            y_row, y_cap = y[: self.n], y[self.n:]
            # pricing: structural columns have two nonzeros, slacks one
            red_struct = (weights - y_row[:, None]
                          - self.mu * y_cap[None, :]).ravel()
            red_struct[basic_struct_ids] = 0.0
            red_slack = -y
            red_slack[self.basis[~structural_basis] - self.nm] = 0.0

            if use_bland:
                candidates = np.flatnonzero(red_struct > _TOL)
                if candidates.size:
                    entering = int(candidates[0])
                else:
                    candidates = np.flatnonzero(red_slack > _TOL)
                    if candidates.size == 0:
                        break
                    entering = self.nm + int(candidates[0])
            else:
                e_struct = int(np.argmax(red_struct))
                e_slack = int(np.argmax(red_slack))
                if red_struct[e_struct] >= red_slack[e_slack]:
                    entering, best = e_struct, red_struct[e_struct]
                else:
                    entering, best = self.nm + e_slack, red_slack[e_slack]
                if best <= _TOL:
                    break

            w = self._column(entering)
            positive = w > _TOL
            if not np.any(positive):
                raise SolverFailure("unbounded direction on a bounded polytope")
            ratios[:] = np.inf
            np.divide(self.xB, w, out=ratios, where=positive)
            theta = ratios.min()
            tied = ratios <= theta + _TOL
            if use_bland and np.count_nonzero(tied) > 1:
                leave_candidates = np.flatnonzero(tied)
                leaving = int(leave_candidates[np.argmin(self.basis[leave_candidates])])
            else:
                leaving = int(np.argmax(np.where(tied, w, -np.inf)))

            if theta <= _TOL:
                degenerate_run += 1
                if degenerate_run > self.rows + 10:
                    use_bland = True
            else:
                degenerate_run = 0
                use_bland = False

            self.in_basis[self.basis[leaving]] = False
            self.in_basis[entering] = True
            self.basis[leaving] = entering
            piv = w[leaving]
            self.B_inv[leaving, :] /= piv
            w[leaving] = 0.0  # rank-1 update touches every other row
            self.B_inv -= w[:, None] * self.B_inv[leaving, :]
            self.xB -= theta * w
            self.xB[leaving] = theta
            np.maximum(self.xB, 0.0, out=self.xB)
            self._pivots_since_refactor += 1
        else:
            raise SolverFailure(f"pivot budget {max_pivots} exhausted")

        # incremental xB drifts; recompute at the optimum before reading it
        self.xB = np.maximum(self.B_inv @ self.b, 0.0)
        beta = np.zeros(self.nm)
        structural = self.basis < self.nm
        beta[self.basis[structural]] = self.xB[structural]
        return np.clip(beta.reshape(self.n, self.m), 0.0, 1.0)
