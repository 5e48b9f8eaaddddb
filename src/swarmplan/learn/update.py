"""Synchronous advantage actor-critic update.

The loss descended per batch of chunks is

    mean_t |R_t - V_t|  -  lam * mean_t A_t * log l_t

where R_t is the n-step return bootstrapped with the critic, the
advantage A_t = R_t - V_t is treated as a constant (detached), and
log l_t is the Gaussian log-likelihood of the sampled score tables under
the current networks. The rollout and the update use the same
parameters, so the learner is on-policy and needs no importance ratio.
Freezing R and A at the evaluation point makes the analytic gradient
exactly the gradient of `frozen_objective`, which is what the
finite-difference tests check.

An update is one batched pass over the whole batch. A batch holds one
(n, m), and its steps either all sampled g or none did; anything else
raises `LearnError`. The update reads the chunks' step arrays, never
their `StepRecord`s: per field, one concatenate of the rounds' stacked
steps and one index give the batch's rows, every chunk's steps in order
and then the bootstrap observations of the non-terminal chunks.
`score_pair_stack` scores every step's pairs in one pass of each net,
and one `critic_rows` matrix holds the critic rows of every step and of
those bootstrap states, which go through the critic together with a
segment mean per state. The targets come from that forward pass;
`score_pairs_backward` and `critic_values_backward` then run one
backward pass of each net. Batched sums round differently from per-step
sums, so results agree with a per-step loop to rounding, not bit for
bit. `frozen_objective` stays a per-step loop over `Chunk.steps`: it is
the independent reference for the gradient checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..nets import (
    CriticParams,
    ScoringModel,
    critic_rows,
    critic_values,
    critic_values_backward,
    grads_to_vector,
    score_pair_stack,
    score_pairs,
    score_pairs_backward,
    zero_grads,
)
from .config import A2CConfig, LearnError, OPTIMIZERS
from .rollout import Chunk, gaussian_loglik


def _check_bootstrap(chunk: Chunk):
    if not chunk.terminal_tail and chunk.bootstrap_at is None:
        raise LearnError("non-terminal chunk without a bootstrap observation")


def nstep_returns(chunk: Chunk, gamma: float, critic: CriticParams) -> list:
    """Discounted n-step returns, bootstrapped with V at the chunk tail."""
    _check_bootstrap(chunk)
    tail = 0.0 if chunk.terminal_tail else _state_value(critic, chunk.bootstrap)
    return _discounted_returns(chunk.rewards, chunk.terminal, gamma, tail)


def _discounted_returns(rewards: list, terminal: list, gamma: float, tail: float) -> list:
    returns = [0.0] * len(rewards)
    running = tail
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] if terminal[t] else rewards[t] + gamma * running
        returns[t] = running
    return returns


def _flat(grads_list) -> np.ndarray:
    """Every gradient array of `grads_list` (per net, (gW, gb) per layer)
    in one vector, in order."""
    return np.concatenate([a.ravel() for grads in grads_list for layer in grads for a in layer])


def _descend(params_list, delta: np.ndarray):
    """Subtract `delta`, laid out as `_flat` lays out the gradients, from
    every (W, b) array of `params_list` in place."""
    at = 0
    for params in params_list:
        for layer in params.layers:
            for arr in layer:
                arr -= delta[at:at + arr.size].reshape(arr.shape)
                at += arr.size


class SgdOptimizer:
    """Plain gradient descent, updating (W, b) arrays in place from one
    flat step vector."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params_list, grads_list):
        _descend(params_list, self.lr * _flat(grads_list))


class AdamOptimizer:
    """Adam with bias correction, updating (W, b) arrays in place. Its
    moments are one flat vector each, over every array it updates, and
    each step runs one pass of Adam's arithmetic over them."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m = self.v = None  # lazily sized from the first gradient batch

    def step(self, params_list, grads_list):
        g = _flat(grads_list)
        if self.m is None:
            self.m, self.v = np.zeros_like(g), np.zeros_like(g)
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        m, v = self.m, self.v
        m *= self.BETA1
        m += (1.0 - self.BETA1) * g
        v *= self.BETA2
        v += (1.0 - self.BETA2) * g * g
        _descend(params_list, self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS))


def make_optimizer(name: str, lr: float):
    if name not in OPTIMIZERS:
        raise LearnError(f"optimizer must be one of {OPTIMIZERS}")
    return AdamOptimizer(lr) if name == "adam" else SgdOptimizer(lr)


@dataclass
class FrozenTargets:
    """Per-chunk, per-step constants detached from the parameters."""

    returns: list
    advantages: list


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

    size: int              # S, the steps of all chunks
    values: np.ndarray     # V of each step, then of each bootstrap state
    log_l: np.ndarray      # log l of each step under the current networks
    diffs: list            # sampled - predicted h (S, n, m), then g (S, m, m) if sampled
    cache: tuple           # score_pair_stack's caches
    critic_cache: tuple


def _state_value(critic, obs) -> float:
    X = critic_rows(critic, obs.agent_feats[None], obs.task_feats[None])
    return float(critic_values(critic, X, [len(X)])[0])


def _loglik(diff, sigma: float) -> np.ndarray:
    """Gaussian log-likelihood of each step from its (S, ...) sample - mean."""
    S, k = len(diff), diff[0].size
    sq = np.bincount(np.repeat(np.arange(S), k), weights=(diff * diff).ravel(), minlength=S)
    return -sq / (2.0 * sigma) - 0.5 * k * np.log(2.0 * np.pi * sigma)


@dataclass
class _BatchRows:
    """A batch's rows: features of every step and then of every bootstrap
    state, the other fields of the steps only."""

    size: tuple            # the (n, m) of every state
    agents: np.ndarray
    tasks: np.ndarray
    extras: np.ndarray | None
    sampled_h: np.ndarray
    sampled_g: np.ndarray | None


def _gather(chunks) -> _BatchRows:
    """Each chunk's steps in order, then the bootstrap observations of the
    non-terminal chunks: one concatenate and one index per field."""
    for chunk in chunks:
        _check_bootstrap(chunk)
    stacks = list(dict.fromkeys(chunk.stack for chunk in chunks))
    tails = [chunk.bootstrap_at for chunk in chunks if not chunk.terminal_tail]
    boots = list(dict.fromkeys(obs for obs, _ in tails))
    sizes = {stack.size for stack in stacks} | {
        (obs.agents.shape[1], obs.tasks.shape[1]) for obs in boots}
    if len(sizes) > 1:
        raise LearnError(f"a batch holds one (n, m), got {sorted(sizes)}")
    g_flags = {g is not None for stack in stacks for g in stack.sampled_g}
    if len(g_flags) > 1:
        raise LearnError("a batch's steps either all sampled g or none did")
    first, total = {}, 0  # each part's first row
    for part, count in [(stack, stack.count) for stack in stacks] + [
            (obs, len(obs.agents)) for obs in boots]:
        first[part], total = total, total + count
    stepped = [obs for stack in stacks for obs in stack.obs]
    entries = stepped + boots
    rows = np.array([first[chunk.stack] + row for chunk in chunks for row in chunk.rows]
                    + [first[obs] + row for obs, row in tails], dtype=np.intp)
    steps = rows[:len(rows) - len(tails)]

    def take(parts, index):
        return np.concatenate(parts)[index]

    def per_step(name):
        return take([a for stack in stacks for a in getattr(stack, name)], steps)

    return _BatchRows(
        sizes.pop(), take([obs.agents for obs in entries], rows),
        take([obs.tasks for obs in entries], rows),
        None if stepped[0].extras is None else take([obs.extras for obs in stepped], steps),
        per_step("sampled_h"), per_step("sampled_g") if True in g_flags else None)


def _batch_forward(model: ScoringModel, critic: CriticParams, chunks,
                   sigma: float) -> _BatchPass:
    batch = _gather(chunks)
    S, (n, m) = len(batch.sampled_h), batch.size
    if batch.sampled_g is not None and model.g_net is None:
        raise LearnError("rollout sampled g but the model has no g_net")
    h, g, cache = score_pair_stack(model, batch.agents[:S], batch.tasks[:S], batch.extras,
                                   with_cache=True)
    diffs = [batch.sampled_h - h]
    log_l = _loglik(diffs[0], sigma)
    if batch.sampled_g is not None:
        diffs.append(batch.sampled_g - g)
        log_l = log_l + _loglik(diffs[1], sigma)
    values, critic_cache = critic_values(critic, critic_rows(critic, batch.agents, batch.tasks),
                                         [n + m] * len(batch.agents), with_cache=True)
    return _BatchPass(S, values, log_l, diffs, cache, critic_cache)


def _targets(batch: _BatchPass, chunks, cfg: A2CConfig) -> FrozenTargets:
    values = batch.values.tolist()
    tails = iter(values[batch.size:])
    returns, advantages = [], []
    start = 0
    for chunk in chunks:
        stop = start + len(chunk)
        tail = 0.0 if chunk.terminal_tail else next(tails)
        R = _discounted_returns(chunk.rewards, chunk.terminal, cfg.gamma, tail)
        returns.append(R)
        advantages.append([r - v for r, v in zip(R, values[start:stop])])
        start = stop
    return FrozenTargets(returns, advantages)


def freeze_targets(model: ScoringModel, critic: CriticParams, chunks,
                   cfg: A2CConfig) -> FrozenTargets:
    """Evaluate R and A at the current parameters and detach them."""
    return _targets(_batch_forward(model, critic, chunks, cfg.sigma), chunks, cfg)


def frozen_objective(model: ScoringModel, critic: CriticParams, chunks,
                     cfg: A2CConfig, frozen: FrozenTargets) -> float:
    """The descended loss with R and A held at the frozen values."""
    total = 0.0
    count = 0
    for chunk, R, A in zip(chunks, frozen.returns, frozen.advantages):
        for step, r, a in zip(chunk.steps, R, A):
            v = _state_value(critic, step.obs)
            log_l = _step_loglik(model, step, cfg.sigma)
            total += abs(r - v) - cfg.lam * a * log_l
            count += 1
    return total / count


@dataclass
class UpdateDiagnostics:
    value_loss: float
    policy_loss: float
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
    S = batch.size
    R, A = (np.array([x for per_chunk in lists for x in per_chunk], dtype=float)
            for lists in (frozen.returns, frozen.advantages))
    if not R.size == A.size == S:
        raise LearnError("frozen targets do not match the batch")
    V = batch.values[:S]
    value_up = np.zeros_like(batch.values)  # bootstrap states get no gradient
    value_up[:S] = -np.sign(R - V) / S
    embed_grads, head_grads = critic_values_backward(critic, batch.critic_cache,
                                                     value_up)
    scale = (-cfg.lam * A / (cfg.sigma * S))[:, None, None]
    h_grads, g_grads = score_pairs_backward(model, batch.cache,
                                            *[scale * diff for diff in batch.diffs])
    if g_grads is None and model.g_net is not None:
        g_grads = zero_grads(model.g_net)
    grads = {"h": h_grads, "g": g_grads, "embed": embed_grads, "head": head_grads}
    norm_sq = sum(float(np.sum(grads_to_vector(acc) ** 2))
                  for acc in grads.values() if acc is not None)
    diag = UpdateDiagnostics(
        value_loss=float(np.mean(np.abs(R - V))),
        policy_loss=float(np.mean(-cfg.lam * A * batch.log_l)),
        grad_norm=float(np.sqrt(norm_sq)),
        steps=S,
    )
    return grads, diag


def a2c_update(model: ScoringModel, critic: CriticParams, chunks,
               cfg: A2CConfig, policy_opt, value_opt) -> UpdateDiagnostics:
    """One gradient step on model and critic from a batch of chunks.

    Updates are skipped (parameters untouched) if any gradient entry is
    non-finite, which keeps a single degenerate rollout from destroying
    the run. The entries are looked at only when `grad_norm`, which
    `a2c_grads` sums over every net's gradient vector, is not finite.
    """
    if not chunks:
        raise LearnError("a2c_update needs at least one chunk")
    grads, diag = a2c_grads(model, critic, chunks, cfg)
    # a finite grad_norm needs finite entries; an overflowing one may have them
    if not math.isfinite(diag.grad_norm) and not all(
            np.isfinite(grads_to_vector(acc)).all() for acc in grads.values() if acc is not None):
        diag.skipped = True
        return diag
    policy_nets = [model.h_net] + ([model.g_net] if model.g_net is not None else [])
    policy_grads = [grads["h"]] + ([grads["g"]] if grads["g"] is not None else [])
    policy_opt.step(policy_nets, policy_grads)
    value_opt.step([critic.embed_net, critic.head_net],
                   [grads["embed"], grads["head"]])
    return diag
