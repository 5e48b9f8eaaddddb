"""Small fully-connected networks with analytic forward/backward passes.

Layers are affine with rectifier nonlinearities in between and a linear
output. The rectifier subgradient at exactly 0 is 0. Parameters live in
float64 so finite-difference checks are meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HIDDEN = 32


class NetError(ValueError):
    """Shape mismatch in a network operation, or non-finite entity features
    given to `critic_value`. Weights are checked where checkpoints load."""


@dataclass
class MlpParams:
    """Ordered (weight, bias) pairs; weight shape (out, in), bias (out,).

    `buffers` holds one flat array per hidden layer, in which the cached
    passes of `mlp_forward_batch` write that layer. Each instance starts
    with empty buffers of its own, so a copy shares none."""

    layers: list
    buffers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for k, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise NetError(f"layer {k}: weight {W.shape} / bias {b.shape} mismatch")
            if k > 0 and W.shape[1] != self.layers[k - 1][0].shape[0]:
                raise NetError(f"layer {k} input {W.shape[1]} != previous output")
        self.buffers = [np.empty(0) for _ in self.layers[:-1]]

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


# the two hidden-layer buffers of the passes that keep no cache, and of
# the deltas of `mlp_backward_batch`
_hidden = [np.empty(0), np.empty(0)]


def _rows_of(buffers, k: int, rows: int, width: int) -> np.ndarray:
    """A (rows, width) view of buffers[k], grown if it is too small."""
    size = rows * width
    if buffers[k].size < size:
        buffers[k] = np.empty(size)
    return buffers[k][:size].reshape(rows, width)


def mlp_forward_batch(params: MlpParams, X: np.ndarray, with_cache: bool = True):
    """Evaluate a batch of inputs X (B, in) -> (Y (B, out), cache). Only the
    shape is checked; `ScoreTable` and the rollout reject non-finite scores.

    The hidden layers go into reused buffers grown to the largest batch
    seen, so that a pass maps no fresh pages. with_cache=False returns no
    cache (None) and alternates between two module-level buffers. A cached
    pass writes layer k into `params.buffers[k]`, and its cache is the list
    of layer inputs: X, then each hidden layer's output. The cache stays
    valid until the next cached pass of the same network; passes without a
    cache, backward passes and other networks leave it alone. Y is a fresh
    array, the same bit for bit either way, and never shares memory with a
    buffer. The buffers make passes not re-entrant: the package runs in
    one thread.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.in_dim:
        raise NetError(f"input shape {X.shape} incompatible with in_dim {params.in_dim}")
    buffers, cache = (params.buffers, [X]) if with_cache else (_hidden, None)
    act = X
    for k, (W, b) in enumerate(params.layers[:-1]):
        out = _rows_of(buffers, k if with_cache else k % 2, X.shape[0], W.shape[0])
        act = np.matmul(act, W.T, out=out)
        act += b
        np.maximum(act, 0.0, out=act)
        if with_cache:
            cache.append(act)
    W, b = params.layers[-1]
    act = act @ W.T
    act += b
    return act, cache


def mlp_backward_batch(params: MlpParams, cache, dY: np.ndarray):
    """Gradients of sum_b <dY_b, out_b> w.r.t. parameters and inputs.

    Returns (grads, dX) where grads mirrors params.layers and dX has the
    input batch shape; both are fresh arrays. The hidden deltas go into
    the module-level buffers, so the cache is left as it was and can be
    backpropagated again. A hidden unit passes its delta where its output
    in the cache is positive, which is where its pre-activation was.
    """
    if len(cache) != len(params.layers):
        raise NetError("cache does not match network depth")
    d = np.asarray(dY, dtype=float)
    grads = [None] * len(params.layers)
    for k in range(len(params.layers) - 1, -1, -1):
        W, _ = params.layers[k]
        if k < len(params.layers) - 1:
            d *= cache[k + 1] > 0.0
        grads[k] = (d.T @ cache[k], d.sum(axis=0))
        out = _rows_of(_hidden, k % 2, d.shape[0], W.shape[1]) if k else None
        if W.shape[0] == 1:
            # an outer product is one multiply per entry; adding +0.0 turns
            # -0.0 into +0.0 as the matmul's zero-started sum does, so this
            # gives the matmul's bits without its overhead
            d = np.multiply(d, W, out=out)
            d += 0.0
        else:
            d = np.matmul(d, W, out=out)
    return grads, d


def zero_grads(params: MlpParams):
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in params.layers]


def params_to_vector(params: MlpParams) -> np.ndarray:
    return np.concatenate([a.ravel() for W, b in params.layers for a in (W, b)])


def grads_to_vector(grads) -> np.ndarray:
    return np.concatenate([a.ravel() for gW, gb in grads for a in (gW, gb)])
