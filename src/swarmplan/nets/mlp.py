"""Small fully-connected networks with analytic forward/backward passes.

Layers are affine with rectifier nonlinearities in between and a linear
output. The rectifier subgradient at exactly 0 is 0. Parameters live in
float64 so finite-difference checks are meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIDDEN = 32


class NetError(ValueError):
    """Shape mismatch in a network operation, or non-finite entity features
    given to `critic_value`. Weights are checked where checkpoints load."""


@dataclass
class MlpParams:
    """Ordered (weight, bias) pairs; weight shape (out, in), bias (out,)."""

    layers: list

    def __post_init__(self):
        for k, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise NetError(f"layer {k}: weight {W.shape} / bias {b.shape} mismatch")
            if k > 0 and W.shape[1] != self.layers[k - 1][0].shape[0]:
                raise NetError(f"layer {k} input {W.shape[1]} != previous output")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams([(W.copy(), b.copy()) for W, b in self.layers])


def init_mlp(sizes, rng) -> MlpParams:
    """Glorot-uniform weights (a = sqrt(6/(fan_in+fan_out))), zero biases."""
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-a, a, size=(fan_out, fan_in))
        layers.append((W, np.zeros(fan_out)))
    return MlpParams(layers)


# the two hidden-layer buffers of `mlp_forward_batch(with_cache=False)`
_hidden = [np.empty(0), np.empty(0)]


def mlp_forward_batch(params: MlpParams, X: np.ndarray, with_cache: bool = True):
    """Evaluate a batch of inputs X (B, in) -> (Y (B, out), cache). Only the
    shape is checked; `ScoreTable` and the rollout reject non-finite scores.

    with_cache=False returns no cache (None) and writes the hidden layers
    into two module-level buffers, alternating between them and grown to
    the largest batch seen, so that a pass maps no fresh pages. Y is a
    fresh array, the same bit for bit as with the cache, and never shares
    memory with a buffer. That path is not re-entrant: the package runs
    in one thread.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.in_dim:
        raise NetError(f"input shape {X.shape} incompatible with in_dim {params.in_dim}")
    act = X
    if not with_cache:
        rows = X.shape[0]
        for k, (W, b) in enumerate(params.layers[:-1]):
            size = rows * W.shape[0]
            if _hidden[k % 2].size < size:
                _hidden[k % 2] = np.empty(size)
            act = np.matmul(act, W.T, out=_hidden[k % 2][:size].reshape(rows, W.shape[0]))
            act += b
            np.maximum(act, 0.0, out=act)
        W, b = params.layers[-1]
        act = act @ W.T
        act += b
        return act, None
    last = len(params.layers) - 1
    cache = []
    for k, (W, b) in enumerate(params.layers):
        pre = act @ W.T + b
        cache.append((act, pre))
        act = pre if k == last else np.maximum(pre, 0.0)
    return act, cache


def mlp_backward_batch(params: MlpParams, cache, dY: np.ndarray):
    """Gradients of sum_b <dY_b, out_b> w.r.t. parameters and inputs.

    Returns (grads, dX) where grads mirrors params.layers and dX has the
    input batch shape.
    """
    if len(cache) != len(params.layers):
        raise NetError("cache does not match network depth")
    dY = np.asarray(dY, dtype=float)
    grads = [None] * len(params.layers)
    d = dY
    last = len(params.layers) - 1
    for k in range(last, -1, -1):
        W, _ = params.layers[k]
        act_in, pre = cache[k]
        if k != last:
            d = d * (pre > 0.0)
        grads[k] = (d.T @ act_in, d.sum(axis=0))
        d = d @ W
    return grads, d


def zero_grads(params: MlpParams):
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in params.layers]


def add_grads(acc, grads):
    for (aW, ab), (gW, gb) in zip(acc, grads):
        aW += gW
        ab += gb
    return acc


def params_to_vector(params: MlpParams) -> np.ndarray:
    return np.concatenate([a.ravel() for W, b in params.layers for a in (W, b)])


def vector_to_params(vec: np.ndarray, template: MlpParams) -> MlpParams:
    layers = []
    k = 0
    for W, b in template.layers:
        nW, nb = W.size, b.size
        layers.append((vec[k:k + nW].reshape(W.shape).copy(),
                       vec[k + nW:k + nW + nb].copy()))
        k += nW + nb
    return MlpParams(layers)


def grads_to_vector(grads) -> np.ndarray:
    return np.concatenate([a.ravel() for gW, gb in grads for a in (gW, gb)])
