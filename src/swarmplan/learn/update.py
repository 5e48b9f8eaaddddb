"""Synchronous advantage actor-critic update.

The loss descended per batch of chunks is

    mean_t |R_t - V_t|  -  lam * mean_t ir_t * A_t * log l_t(new)

where R_t is the n-step return bootstrapped with the critic, the
advantage A_t = R_t - V_t and the importance ratio
ir_t = exp(log l_new - log l_old) are treated as constants (detached),
and log l_t is the Gaussian log-likelihood of the sampled score tables
under the current networks. Freezing R, A and ir at the evaluation point
makes the analytic gradient exactly the gradient of `frozen_objective`,
which is what the finite-difference tests check.

An update is one batched pass over the whole batch: every step's
agent-task pair rows go through h_net together (task-task rows through
g_net when the steps sampled g), and every step's critic entities, plus
the bootstrap entities of non-terminal chunks, go through the critic
together with a segment mean per state. The targets come from that
forward pass, and each net then runs one backward pass. Batched sums
round differently from per-step sums, so results agree with a per-step
loop to rounding, not bit for bit. `frozen_objective` stays a per-step
loop: it is the independent reference for the gradient checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nets import (
    CriticParams,
    ScoringModel,
    critic_value,
    critic_values,
    critic_values_backward,
    grads_to_vector,
    mlp_backward_batch,
    mlp_forward_batch,
    score_pairs,
    zero_grads,
)
from ..nets.scoring import _pair_inputs, _task_pair_inputs
from .config import A2CConfig, LearnError, OPTIMIZERS
from .rollout import Chunk, gaussian_loglik

LOG_RATIO_CLIP = 20.0  # clamp log l_new - log l_old before exponentiating


def _check_bootstrap(chunk: Chunk):
    if not chunk.terminal_tail and chunk.bootstrap_entities is None:
        raise LearnError("non-terminal chunk without bootstrap entities")


def nstep_returns(chunk: Chunk, gamma: float, critic: CriticParams) -> list:
    """Discounted n-step returns, bootstrapped with V at the chunk tail."""
    _check_bootstrap(chunk)
    tail = 0.0 if chunk.terminal_tail else critic_value(critic, chunk.bootstrap_entities)
    return _discounted_returns(chunk, gamma, tail)


def _discounted_returns(chunk: Chunk, gamma: float, tail: float) -> list:
    returns = [0.0] * len(chunk.steps)
    running = tail
    for t in range(len(chunk.steps) - 1, -1, -1):
        step = chunk.steps[t]
        running = step.reward if step.terminal else step.reward + gamma * running
        returns[t] = running
    return returns


class SgdOptimizer:
    """Plain gradient descent, updating (W, b) arrays in place."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params_list, grads_list):
        for params, grads in zip(params_list, grads_list):
            for (W, b), (gW, gb) in zip(params.layers, grads):
                W -= self.lr * gW
                b -= self.lr * gb


class AdamOptimizer:
    """Adam with bias correction, updating (W, b) arrays in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moments = None  # lazily shaped from the first gradient batch

    def step(self, params_list, grads_list):
        if self.moments is None:
            self.moments = [
                [(np.zeros_like(gW), np.zeros_like(gb),
                  np.zeros_like(gW), np.zeros_like(gb)) for gW, gb in grads]
                for grads in grads_list
            ]
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for params, grads, moms in zip(params_list, grads_list, self.moments):
            for (W, b), (gW, gb), (mW, mb, vW, vb) in zip(params.layers, grads, moms):
                for arr, g, m, v in ((W, gW, mW, vW), (b, gb, mb, vb)):
                    m *= self.beta1
                    m += (1.0 - self.beta1) * g
                    v *= self.beta2
                    v += (1.0 - self.beta2) * g * g
                    arr -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def make_optimizer(name: str, lr: float):
    if name not in OPTIMIZERS:
        raise LearnError(f"optimizer must be one of {OPTIMIZERS}")
    return AdamOptimizer(lr) if name == "adam" else SgdOptimizer(lr)


@dataclass
class FrozenTargets:
    """Per-chunk, per-step constants detached from the parameters."""

    returns: list
    advantages: list
    ratios: list


def _step_loglik(model: ScoringModel, step, sigma: float) -> float:
    """log l of one step's sampled tables under the current model."""
    table = score_pairs(model, step.obs.agent_feats, step.obs.task_feats,
                        pair_extras=step.obs.pair_extras)
    log_l = gaussian_loglik(step.sampled_h, table.h, sigma)
    if step.sampled_g is not None:
        if table.g is None:
            raise LearnError("rollout sampled g but the model has no g_net")
        log_l += gaussian_loglik(step.sampled_g, table.g, sigma)
    return log_l


@dataclass
class _BatchPass:
    """Every step of a batch scored by one forward pass, with its caches."""

    steps: list            # the steps of all chunks, in batch order
    values: np.ndarray     # V of each step, then of each bootstrap state
    log_l: np.ndarray      # log l of each step under the current networks
    policy: list           # (net, cache, sampled - predicted, step of each row)
    critic_cache: tuple


def _pair_pass(net, blocks, samples, step_ids, num_steps: int, sigma: float):
    """One forward of `net` over the stacked pair rows of several steps.

    Returns the policy entry for `_BatchPass` and the per-step Gaussian
    log-likelihood of the sampled tables (0 for steps without rows).
    """
    out, cache = mlp_forward_batch(net, np.vstack(blocks))
    diff = np.concatenate([np.ravel(sample) for sample in samples]) - out[:, 0]
    seg = np.repeat(step_ids, [block.shape[0] for block in blocks])
    sq = np.bincount(seg, weights=diff * diff, minlength=num_steps)
    k = np.bincount(seg, minlength=num_steps)
    log_l = -sq / (2.0 * sigma) - 0.5 * k * np.log(2.0 * np.pi * sigma)
    return (net, cache, diff, seg), log_l


def _batch_forward(model: ScoringModel, critic: CriticParams, chunks,
                   sigma: float) -> _BatchPass:
    steps = [step for chunk in chunks for step in chunk.steps]
    S = len(steps)
    h_blocks = [_pair_inputs(model, step.obs.agent_feats, step.obs.task_feats,
                             step.obs.pair_extras)[0] for step in steps]
    h_part, log_l = _pair_pass(model.h_net, h_blocks,
                               [step.sampled_h for step in steps],
                               np.arange(S), S, sigma)
    policy = [h_part]
    g_ids = [t for t, step in enumerate(steps) if step.sampled_g is not None]
    if g_ids:
        if model.g_net is None:
            raise LearnError("rollout sampled g but the model has no g_net")
        g_blocks = [_task_pair_inputs(model, steps[t].obs.task_feats)[0]
                    for t in g_ids]
        g_part, g_log_l = _pair_pass(model.g_net, g_blocks,
                                     [steps[t].sampled_g for t in g_ids],
                                     np.array(g_ids), S, sigma)
        policy.append(g_part)
        log_l = log_l + g_log_l
    for chunk in chunks:
        _check_bootstrap(chunk)
    entity_lists = [step.obs.entities for step in steps] + [
        chunk.bootstrap_entities for chunk in chunks if not chunk.terminal_tail]
    values, critic_cache = critic_values(critic, entity_lists, with_cache=True)
    return _BatchPass(steps, values, log_l, policy, critic_cache)


def _targets(batch: _BatchPass, chunks, cfg: A2CConfig) -> FrozenTargets:
    values = batch.values.tolist()
    tails = iter(values[len(batch.steps):])
    log_l_old = np.array([step.log_l_old for step in batch.steps])
    delta = np.clip(batch.log_l - log_l_old, -LOG_RATIO_CLIP, LOG_RATIO_CLIP)
    ratios = np.exp(delta).tolist()
    returns, advantages, irs = [], [], []
    start = 0
    for chunk in chunks:
        stop = start + len(chunk.steps)
        tail = 0.0 if chunk.terminal_tail else next(tails)
        R = _discounted_returns(chunk, cfg.gamma, tail)
        returns.append(R)
        advantages.append([r - v for r, v in zip(R, values[start:stop])])
        irs.append(ratios[start:stop])
        start = stop
    return FrozenTargets(returns, advantages, irs)


def freeze_targets(model: ScoringModel, critic: CriticParams, chunks,
                   cfg: A2CConfig) -> FrozenTargets:
    """Evaluate R, A and ir at the current parameters and detach them."""
    return _targets(_batch_forward(model, critic, chunks, cfg.sigma), chunks, cfg)


def frozen_objective(model: ScoringModel, critic: CriticParams, chunks,
                     cfg: A2CConfig, frozen: FrozenTargets) -> float:
    """The descended loss with R, A, ir held at the frozen values."""
    total = 0.0
    count = 0
    for chunk, R, A, ir in zip(chunks, frozen.returns, frozen.advantages,
                               frozen.ratios):
        for step, r, a, w in zip(chunk.steps, R, A, ir):
            v = critic_value(critic, step.obs.entities)
            log_l = _step_loglik(model, step, cfg.sigma)
            total += abs(r - v) - cfg.lam * w * a * log_l
            count += 1
    return total / count


@dataclass
class UpdateDiagnostics:
    value_loss: float
    policy_loss: float
    mean_ir: float
    grad_norm: float
    steps: int
    skipped: bool = False


def a2c_grads(model: ScoringModel, critic: CriticParams, chunks,
              cfg: A2CConfig, frozen: FrozenTargets | None = None):
    """Analytic gradients of the batch loss (means over steps).

    Returns (grads, diagnostics) with grads = {"h", "g", "embed", "head"};
    "g" is None when the model has no g_net. When `frozen` is omitted the
    targets are evaluated at the current parameters, which is the on-line
    update; passing explicit targets reproduces `frozen_objective`.
    Either way the batch is scored by one forward pass and each net runs
    one backward pass.
    """
    batch = _batch_forward(model, critic, chunks, cfg.sigma)
    if frozen is None:
        frozen = _targets(batch, chunks, cfg)
    S = len(batch.steps)
    R, A, W = (np.array([x for per_chunk in lists for x in per_chunk], dtype=float)
               for lists in (frozen.returns, frozen.advantages, frozen.ratios))
    if not R.size == A.size == W.size == S:
        raise LearnError("frozen targets do not match the batch")
    V = batch.values[:S]
    value_up = np.zeros_like(batch.values)  # bootstrap states get no gradient
    value_up[:S] = -np.sign(R - V) / S
    embed_grads, head_grads = critic_values_backward(critic, batch.critic_cache,
                                                     value_up)
    scale = -cfg.lam * W * A / (cfg.sigma * S)
    policy = [mlp_backward_batch(net, cache, (scale[seg] * diff)[:, None])[0]
              for net, cache, diff, seg in batch.policy]
    g_grads = policy[1] if len(policy) > 1 else (
        zero_grads(model.g_net) if model.g_net is not None else None)
    grads = {"h": policy[0], "g": g_grads, "embed": embed_grads, "head": head_grads}
    norm_sq = sum(float(np.sum(grads_to_vector(acc) ** 2))
                  for acc in grads.values() if acc is not None)
    diag = UpdateDiagnostics(
        value_loss=float(np.mean(np.abs(R - V))),
        policy_loss=float(np.mean(-cfg.lam * W * A * batch.log_l)),
        mean_ir=float(np.mean(W)),
        grad_norm=float(np.sqrt(norm_sq)),
        steps=S,
    )
    return grads, diag


def a2c_update(model: ScoringModel, critic: CriticParams, chunks,
               cfg: A2CConfig, policy_opt, value_opt) -> UpdateDiagnostics:
    """One gradient step on model and critic from a batch of chunks.

    Updates are skipped (parameters untouched) if any gradient entry is
    non-finite, which keeps a single degenerate rollout from destroying
    the run.
    """
    if not chunks:
        raise LearnError("a2c_update needs at least one chunk")
    grads, diag = a2c_grads(model, critic, chunks, cfg)
    for acc in grads.values():
        if acc is None:
            continue
        if not np.all(np.isfinite(grads_to_vector(acc))):
            diag.skipped = True
            return diag
    policy_nets = [model.h_net] + ([model.g_net] if model.g_net is not None else [])
    policy_grads = [grads["h"]] + ([grads["g"]] if grads["g"] is not None else [])
    policy_opt.step(policy_nets, policy_grads)
    value_opt.step([critic.embed_net, critic.head_net],
                   [grads["embed"], grads["head"]])
    return diag
