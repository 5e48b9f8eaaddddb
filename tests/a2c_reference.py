"""The per-step A2C reference that the batched update is checked against,
and the parameter helpers of the gradient checks.

`frozen_objective` is the loss that `learn.a2c_grads` descends, with R
and A held at frozen values, computed one step at a time over
`Chunk.steps`: one `score_pairs` pass and one critic pass per step. It
shares no batching code with the update, so it is the independent
reference of the finite-difference gradient checks.
"""
from __future__ import annotations

import numpy as np

from swarmplan.learn import LearnError
from swarmplan.nets import MlpParams, critic_rows, critic_values, score_pairs


def gaussian_loglik(sample: np.ndarray, mean: np.ndarray, variance: float) -> float:
    """Joint log-density of independent N(mean, variance) entries."""
    diff = np.asarray(sample, dtype=float) - np.asarray(mean, dtype=float)
    return float(-np.sum(diff ** 2) / (2.0 * variance)
                 - 0.5 * diff.size * np.log(2.0 * np.pi * variance))


def step_loglik(model, step, sigma: float) -> float:
    """log l of one step's sampled tables under the current model."""
    table = score_pairs(model, step.obs.agent_feats, step.obs.task_feats,
                        pair_extras=step.obs.pair_extras)
    log_l = gaussian_loglik(step.sampled_h, table.h, sigma)
    if step.sampled_g is not None:
        if table.g is None:
            raise LearnError("rollout sampled g but the model has no g_net")
        log_l += gaussian_loglik(step.sampled_g, table.g, sigma)
    return log_l


def state_value(critic, obs) -> float:
    X = critic_rows(critic, obs.agent_feats[None], obs.task_feats[None])
    return float(critic_values(critic, X, [len(X)])[0])


def frozen_objective(model, critic, chunks, cfg, frozen) -> float:
    """The descended loss with R and A held at the frozen values."""
    total = 0.0
    count = 0
    for chunk, R, A in zip(chunks, frozen.returns, frozen.advantages):
        for step, r, a in zip(chunk.steps, R, A):
            v = state_value(critic, step.obs)
            log_l = step_loglik(model, step, cfg.sigma)
            total += abs(r - v) - cfg.lam * a * log_l
            count += 1
    return total / count


def bootstrap(chunk):
    """The Observation after a chunk's last step, or None after a terminal one."""
    if chunk.bootstrap_at is None:
        return None
    stack, row = chunk.bootstrap_at
    return stack.lane(row)


def add_grads(acc, grads):
    for (aW, ab), (gW, gb) in zip(acc, grads):
        aW += gW
        ab += gb
    return acc


def vector_to_params(vec: np.ndarray, template: MlpParams) -> MlpParams:
    layers = []
    k = 0
    for W, b in template.layers:
        nW, nb = W.size, b.size
        layers.append((vec[k:k + nW].reshape(W.shape).copy(),
                       vec[k + nW:k + nW + nb].copy()))
        k += nW + nb
    return MlpParams(layers)
