"""Temporally correlated Gaussian exploration noise.

The sampled score table is H_t = h_t + moving sum of the last p i.i.d.
innovations, each with variance sigma/p. The moving sum has stationary
variance sigma and lag-l autocovariance (p - l) * sigma / p, so
consecutive assignments stay consistent while the per-step marginal
matches the N(h, sigma) likelihood the update assumes.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np


class NoiseWindows:
    """Sliding window of the last p noise innovations for one score table."""

    def __init__(self, shape, p: int):
        if p < 1:
            raise ValueError("window length p must be >= 1")
        self.shape = tuple(shape)
        self.p = p
        self.queue = deque(maxlen=p)
        self.reset()

    def reset(self):
        """Start of episode: window holds zeros."""
        self.queue.clear()
        for _ in range(self.p):
            self.queue.append(np.zeros(self.shape))

    def sample(self, means: np.ndarray, sigma: float, rng) -> np.ndarray:
        """Draw one innovation, slide the window, return the noisy table."""
        means = np.asarray(means, dtype=float)
        if means.shape != self.shape:
            raise ValueError(f"means shape {means.shape} != window shape {self.shape}")
        if not 0.0 <= sigma < math.inf:  # NaN fails both comparisons
            raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
        innovation = rng.normal(0.0, np.sqrt(sigma / self.p), self.shape)
        self.queue.append(innovation)
        noise = innovation if self.p == 1 else sum(self.queue)
        return means + noise
