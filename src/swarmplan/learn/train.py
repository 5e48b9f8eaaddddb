"""Synchronous training loop.

The `cfg.workers` rollout lanes share one parameter snapshot per update
and are stepped in lockstep. Each round gives one chunk per lane, in
lane order, until the batch holds `cfg.batch_chunks` chunks (the last
round takes only as many lanes as the batch still needs); then the
updater applies one gradient step. Each lane keeps its rng, seeded
`seed + 7919 * (k + 1)`, and its episode across updates. Evaluation keeps
exploration noise on, since the exploration distribution is the policy
being optimized.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from ..nets import CriticParams, ScoringModel
from .config import A2CConfig, LearnError
from .rollout import RolloutLanes, RolloutWorker
from .update import a2c_update, make_optimizer

METRIC_FIELDS = (
    "wall_clock",
    "env_steps",
    "updates",
    "eval_mean_return",
    "eval_mean_length",
    "value_loss",
    "policy_loss",
    "grad_norm",
    "skipped",
)


def play_episode(meta_env, model: ScoringModel, inference: str, cfg: A2CConfig,
                 rng, seed=None):
    """One full episode with exploration on; returns (return, length)."""
    seeds = None if seed is None else [seed]
    worker = RolloutWorker(meta_env, inference, cfg, rng, episode_seeds=seeds)
    worker.set_model(model)
    total = 0.0
    length = 0
    while True:
        chunk = worker.collect_chunk()
        total += sum(chunk.rewards)
        length += len(chunk)
        if chunk.terminal_tail:
            return total, length


def evaluate_policy(env_factory, model, inference, cfg, seeds) -> list:
    """Play one episode per seed, each on a fresh `env_factory()` reset
    with that seed, with exploration noise drawn from one rng seeded
    `seeds[0]`; returns (env after the episode, return, length) per seed."""
    if len(seeds) == 0:
        raise LearnError("evaluation needs at least one seed")
    rng = np.random.default_rng(seeds[0])
    played = []
    for seed in seeds:
        env = env_factory()
        played.append((env, *play_episode(env, model, inference, cfg, rng, seed=seed)))
    return played


@dataclass
class TrainResult:
    model: ScoringModel
    critic: CriticParams
    metrics: list  # one dict per update, METRIC_FIELDS keys
    env_steps: int
    updates: int


def write_metrics(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def train(
    model: ScoringModel,
    critic: CriticParams,
    env_factory,
    inference: str,
    cfg: A2CConfig,
    total_updates: int,
    seed: int = 0,
    eval_every: int = 0,
    eval_seeds=range(10_000, 10_008),
    metrics_path=None,
) -> TrainResult:
    """Run `total_updates` synchronous A2C updates in place.

    A budget of zero leaves the parameters untouched. With `eval_every`
    = k > 0, every k-th update and the last one record the mean return
    and length of `evaluate_policy` over `eval_seeds`.
    """
    if total_updates < 0:
        raise LearnError("total_updates must be >= 0")
    lanes = RolloutLanes(
        [env_factory() for _ in range(cfg.workers)], inference, cfg,
        [np.random.default_rng(seed + 7919 * (k + 1)) for k in range(cfg.workers)])
    policy_opt = make_optimizer(cfg.optimizer, cfg.lr_policy)
    value_opt = make_optimizer(cfg.optimizer, cfg.lr_value)
    rows = []
    env_steps = 0
    start = time.perf_counter()
    for updates in range(1, total_updates + 1):
        lanes.set_model(model)
        chunks = []
        while len(chunks) < cfg.batch_chunks:
            chunks += lanes.collect_round(min(cfg.workers, cfg.batch_chunks - len(chunks)))
        env_steps += sum(len(chunk) for chunk in chunks)
        diag = a2c_update(model, critic, chunks, cfg, policy_opt, value_opt)
        row = {
            "wall_clock": time.perf_counter() - start,
            "env_steps": env_steps,
            "updates": updates,
            "eval_mean_return": "",
            "eval_mean_length": "",
            "value_loss": diag.value_loss,
            "policy_loss": diag.policy_loss,
            "grad_norm": diag.grad_norm,
            "skipped": int(diag.skipped),
        }
        if eval_every and (updates % eval_every == 0 or updates == total_updates):
            played = evaluate_policy(env_factory, model, inference, cfg, eval_seeds)
            row["eval_mean_return"] = float(np.mean([ret for _, ret, _ in played]))
            row["eval_mean_length"] = float(np.mean([length for _, _, length in played]))
        rows.append(row)
    if metrics_path is not None:
        write_metrics(metrics_path, rows)
    return TrainResult(model, critic, rows, env_steps, total_updates)
