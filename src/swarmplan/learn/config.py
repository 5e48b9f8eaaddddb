"""Hyperparameters for the actor-critic learner."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

OPTIMIZERS = ("sgd", "adam")


class LearnError(ValueError):
    pass


@dataclass
class A2CConfig:
    gamma: float = 0.99          # battle uses 0.999
    sigma: float = 0.5           # total exploration variance of H - h
    p: int = 3                   # correlated-noise window length
    n_steps: int = 4             # return/chunk length N
    lam: float = 1.0             # policy-loss weight
    lr_policy: float = 1e-3
    lr_value: float = 1e-3
    optimizer: str = "sgd"
    workers: int = 8
    batch_chunks: int = 16       # chunks per update

    def __post_init__(self):
        for names, kind, what in ((("gamma", "sigma", "lam", "lr_policy", "lr_value"),
                                   numbers.Real, "a number"),
                                  (("p", "n_steps", "workers", "batch_chunks"),
                                   numbers.Integral, "an integer")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise LearnError(f"{name} must be {what}, got {value!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise LearnError("gamma must be in [0, 1)")
        for name in ("sigma", "lam", "lr_policy", "lr_value"):
            try:
                finite = math.isfinite(getattr(self, name))
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise LearnError(f"{name} must be finite")
        if self.sigma <= 0:
            raise LearnError("sigma must be > 0")
        if min(self.lam, self.lr_policy, self.lr_value) < 0:
            raise LearnError("lam, lr_policy and lr_value must be >= 0")
        if self.p < 1:
            raise LearnError("p must be >= 1")
        if self.n_steps < 2:
            raise LearnError("n_steps must be >= 2")
        if self.optimizer not in OPTIMIZERS:
            raise LearnError(f"optimizer must be one of {OPTIMIZERS}")
        if self.workers < 1 or self.batch_chunks < 1:
            raise LearnError("workers and batch_chunks must be >= 1")
