"""Temporally correlated Gaussian exploration noise.

The sampled score table is H_t = h_t + moving sum of the last p i.i.d.
innovations, each with variance sigma/p. The moving sum has stationary
variance sigma and lag-l autocovariance (p - l) * sigma / p, so
consecutive assignments stay consistent while the per-step marginal
matches the N(h, sigma) likelihood the update assumes.

A `NoiseWindows` keeps the windows of one score-table kind as one array,
(W, p, *shape), oldest innovation first: W = 1 for one table, or one
window per lane of a collector on a leading lane axis.
"""
from __future__ import annotations

import math

import numpy as np


class NoiseWindows:
    """Sliding windows of the last p noise innovations of one table kind.

    `NoiseWindows(shape, p)` holds one table's window and samples one
    table with one rng. `NoiseWindows(shape, p, lanes=L)` holds L windows
    on a leading lane axis and samples the lanes it is given in one call:
    lane k draws its innovation from its own rng, and a step slides only
    the windows of the lanes it samples. Each window sums its innovations
    oldest to newest, as a per-lane window would.
    """

    def __init__(self, shape, p: int, lanes: int | None = None):
        if p < 1:
            raise ValueError("window length p must be >= 1")
        self.shape = tuple(shape)
        self.p = p
        self.lanes = lanes
        self.window = np.zeros((1 if lanes is None else lanes, p) + self.shape)

    def reset(self, lanes=None):
        """Start of episode: the windows of `lanes` (an index array; every
        window by default) hold zeros."""
        self.window[slice(None) if lanes is None else lanes] = 0.0

    def sample(self, means: np.ndarray, sigma: float, rng, lanes=None) -> np.ndarray:
        """Draw one innovation per sampled window, slide those windows and
        return the noisy tables, means + window sum.

        One table: `means` of `shape` and one rng. With a lane axis:
        `lanes` indexes the sampled lanes (every lane by default), `means`
        holds their tables (len(lanes), *shape) and `rng` is a sequence of
        their rngs, in the same order.
        """
        means = np.asarray(means, dtype=float)
        rngs = [rng] if self.lanes is None else rng
        want = self.shape if self.lanes is None else (len(rngs),) + self.shape
        if means.shape != want:
            raise ValueError(f"means shape {means.shape} != window shape {want}")
        if not 0.0 <= sigma < math.inf:  # NaN fails both comparisons
            raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
        scale = np.sqrt(sigma / self.p)
        window = self.window if lanes is None else self.window[lanes]
        if self.p > 1:
            window[:, :-1] = window[:, 1:]
        window[:, -1] = [r.normal(0.0, scale, self.shape) for r in rngs]
        noise = window[:, 0] if self.p == 1 else window[:, 0] + window[:, 1]
        for k in range(2, self.p):
            noise += window[:, k]
        if lanes is not None:
            self.window[lanes] = window
        return means + (noise[0] if self.lanes is None else noise)
