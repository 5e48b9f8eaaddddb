"""Revised primal simplex over the general assignment polytope

    { beta >= 0,  sum_j beta_ij <= 1,  sum_i mu_ij beta_ij <= u_j }

for any nonnegative mu: the scipy-free reference that the golden digests
and the network-simplex tests compare against. The package solves only
row-constant mu (`swarmplan.assign.network.TransportLp`), whose entering
rule and tolerance mirror this solver's.

Row sums <= 1 imply beta <= 1, so only the n + m aggregate rows are
materialized and the all-slack basis is feasible (no phase-1). Every
structural column has at most two nonzeros (a 1 in its agent row and
mu_ij in its task row), which keeps pricing at O(nm) regardless of the
number of variables. A pivot costs one O(rows^2) product for the duals;
the rank-1 update of the basis inverse touches only the rows where the
entering column is nonzero, which stays a small share of the rows.

Pricing is Dantzig's rule, falling back to Bland's rule after a run of
degenerate pivots to guarantee termination. The solver object keeps its
basis between solves, so repeated calls with different objectives
warm-start from the previous optimum (the network simplex starts every
solve from the all-slack tree instead).
"""
from __future__ import annotations

import numpy as np

from swarmplan.assign import SolverFailure

_TOL = 1e-9
_REFACTOR_EVERY = 300


class PolytopeLp:
    """Reusable simplex state for one constraint set.

    Variable ids: structural beta_ij -> i*m + j; agent-row slack i ->
    nm + i; capacity slack j -> nm + n + j. `pivots` counts the pivots
    of every solve so far.
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
        self.B_inv = np.eye(self.rows)
        self.xB = self.b.copy()
        self.pivots = 0
        self._pivots_since_refactor = 0

    def _column(self, var: int) -> np.ndarray:
        """B_inv times the constraint column of `var`."""
        if var < self.nm:
            i, j = divmod(var, self.m)
            return self.B_inv[:, i] + self.mu[i, j] * self.B_inv[:, self.n + j]
        return self.B_inv[:, var - self.nm].copy()

    def _refactor(self):
        B = np.zeros((self.rows, self.rows))
        k = np.arange(self.rows)
        structural = self.basis < self.nm
        i, j = np.divmod(self.basis[structural], self.m)
        B[i, k[structural]] = 1.0
        B[self.n + j, k[structural]] = self.mu[i, j]
        B[self.basis[~structural] - self.nm, k[~structural]] = 1.0
        self.B_inv = np.linalg.inv(B)
        self.xB = np.maximum(self.B_inv @ self.b, 0.0)
        self._pivots_since_refactor = 0

    def solve(self, weights: np.ndarray, max_pivots: int | None = None) -> np.ndarray:
        """max <weights, beta> over the polytope; returns beta (n, m).

        Warm-starts from the basis left by the previous solve. Raises
        SolverFailure if the pivot budget is exhausted.
        """
        weights = np.asarray(weights, dtype=float)
        if max_pivots is None:
            max_pivots = 100 * self.rows + 20 * max(self.n, self.m) ** 2 + 1000

        degenerate_run = 0
        use_bland = False
        cost = np.concatenate([weights.ravel(), np.zeros(self.rows)])
        cB = cost[self.basis]
        # reduced cost of every variable id; basic ids are zeroed each pivot
        red = np.empty(self.total)
        red_struct = red[: self.nm].reshape(self.n, self.m)
        y_mu = np.empty((self.n, self.m))
        for pivot in range(max_pivots):
            if self._pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactor()

            y = cB @ self.B_inv
            # pricing: structural columns have two nonzeros, slacks one
            np.subtract(weights, y[: self.n, None], out=red_struct)
            np.multiply(self.mu, y[None, self.n:], out=y_mu)
            np.subtract(red_struct, y_mu, out=red_struct)
            np.negative(y, out=red[self.nm:])
            red[self.basis] = 0.0

            # ties go to the lowest id, so structural columns before slacks
            if use_bland:
                candidates = np.flatnonzero(red > _TOL)
                if candidates.size == 0:
                    break
                entering = int(candidates[0])
            else:
                entering = int(red.argmax())
                if red[entering] <= _TOL:
                    break

            w = self._column(entering)
            positive = np.flatnonzero(w > _TOL)
            if positive.size == 0:
                raise SolverFailure("unbounded direction on a bounded polytope")
            ratios = self.xB[positive] / w[positive]
            theta = ratios.min()
            tied = positive[ratios <= theta + _TOL]
            if use_bland and tied.size > 1:
                leaving = int(tied[np.argmin(self.basis[tied])])
            else:
                leaving = int(tied[np.argmax(w[tied])])

            if theta <= _TOL:
                degenerate_run += 1
                if degenerate_run > self.rows + 10:
                    use_bland = True
            else:
                degenerate_run = 0
                use_bland = False

            self.basis[leaving] = entering
            cB[leaving] = cost[entering]
            piv = w[leaving]
            self.B_inv[leaving, :] /= piv
            w[leaving] = 0.0
            # rank-1 update; rows where w is zero would not change
            touched = w.nonzero()[0]
            self.B_inv[touched] -= w[touched, None] * self.B_inv[leaving, :]
            self.xB -= theta * w
            self.xB[leaving] = theta
            np.maximum(self.xB, 0.0, out=self.xB)
            self.pivots += 1
            self._pivots_since_refactor += 1
        else:
            raise SolverFailure(f"pivot budget {max_pivots} exhausted")

        # incremental xB drifts; recompute at the optimum before reading it
        self.xB = np.maximum(self.B_inv @ self.b, 0.0)
        beta = np.zeros(self.nm)
        structural = self.basis < self.nm
        beta[self.basis[structural]] = self.xB[structural]
        return np.clip(beta.reshape(self.n, self.m), 0.0, 1.0)
