"""Core data types for score-parameterized assignment inference.

All types are plain dataclasses wrapping numpy arrays; operations treat them
as immutable values.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNASSIGNED = -1

FEAS_EPS = 1e-8


class AssignError(ValueError):
    """Invalid input to an assignment operation (shape/value violation)."""


class SolverFailure(RuntimeError):
    """The LP solver exhausted its pivot budget without terminating."""


@dataclass
class ScoreTable:
    """Pairwise agent-task scores, plus optional task-task scores.

    h has shape (n, m). g, when present, has shape (m, m) and weights the
    quadratic interaction between tasks; no symmetry is required.
    """

    h: np.ndarray
    g: np.ndarray | None = None

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.h.ndim != 2 or self.h.size == 0:
            raise AssignError(f"h must be a non-empty 2-D matrix, got shape {self.h.shape}")
        if not np.all(np.isfinite(self.h)):
            raise AssignError("h contains non-finite values")
        if self.g is not None:
            self.g = np.asarray(self.g, dtype=float)
            m = self.h.shape[1]
            if self.g.shape != (m, m):
                raise AssignError(f"g must have shape ({m}, {m}), got {self.g.shape}")
            if not np.all(np.isfinite(self.g)):
                raise AssignError("g contains non-finite values")

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def m(self) -> int:
        return self.h.shape[1]


@dataclass
class ConstraintSet:
    """Feasible-polytope parameters: contributions mu (n, m) and capacities
    u (m,). The rounding takes any mu; the LP procedures only mu_ij = d_i."""

    mu: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.mu.ndim != 2:
            raise AssignError(f"mu must be 2-D, got shape {self.mu.shape}")
        if self.u.shape != (self.mu.shape[1],):
            raise AssignError(f"u must have shape ({self.mu.shape[1]},), got {self.u.shape}")
        if not all(((0 <= a) & (a < np.inf)).all() for a in (self.mu, self.u)):  # NaN fails too
            raise AssignError("mu and u must be nonnegative and finite")

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def m(self) -> int:
        return self.mu.shape[1]

    @cached_property
    def unit_demand(self) -> bool:
        """`unit_demand(mu, u)`, tested on first use and kept: a set is an
        immutable value."""
        return unit_demand(self.mu, self.u)


def unit_demand(mu, u) -> bool:
    """True iff every contribution mu is 1 and every capacity u is a whole
    number, in one polytope or a stack of them.

    The polytope is then a bipartite b-matching polytope: totally
    unimodular, so its LP optimum is an integral matching.
    """
    return bool((mu == 1.0).all() and (u == np.floor(u)).all())


@dataclass
class Assignment:
    """Hard per-agent task choice; entry is a task index or UNASSIGNED (-1)."""

    target: np.ndarray

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=int)
        if self.target.ndim != 1:
            raise AssignError("target must be a 1-D integer vector")

    @property
    def n(self) -> int:
        return self.target.shape[0]

    def to_matrix(self, m: int) -> np.ndarray:
        """0/1 matrix representation (n, m)."""
        beta = np.zeros((self.n, m))
        for i, j in enumerate(self.target):
            if j != UNASSIGNED:
                if not 0 <= j < m:
                    raise AssignError(f"target {j} out of range for m={m}")
                beta[i, j] = 1.0
        return beta


@dataclass
class RelaxedAssignment:
    """Fractional assignment matrix beta (n, m) with entries in [0, 1]."""

    beta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.ndim != 2:
            raise AssignError("beta must be a 2-D matrix")

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def m(self) -> int:
        return self.beta.shape[1]


@dataclass
class FwConfig:
    """Frank-Wolfe iteration budget and duality-gap threshold.

    gap_tol is relative: the loop stops when the FW gap falls below
    gap_tol * (1 + |objective|). max_iters caps the iterations. The third
    stop rule, on a settled objective, has no setting: see
    `quad_relax_solve`.
    """

    max_iters: int = 50
    gap_tol: float = 1e-6

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise AssignError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise AssignError("max_iters must be >= 1")
        if not 0 < self.gap_tol < np.inf:  # NaN fails too
            raise AssignError("gap_tol must be positive and finite")
