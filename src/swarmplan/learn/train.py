"""Synchronous training loop.

Workers are stepped serially in round-robin: every update, each worker
gets the same parameter snapshot and contributes chunks until the batch
is full, then the updater applies one gradient step. Evaluation keeps
exploration noise on, since the exploration distribution is the policy
being optimized.
"""
from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..nets import CriticParams, ScoringModel
from .config import A2CConfig, LearnError
from .rollout import RolloutWorker
from .update import UpdateDiagnostics, a2c_update, make_optimizer

THREADS_ENV = "SWARMPLAN_THREADS"

METRIC_FIELDS = (
    "wall_clock",
    "env_steps",
    "updates",
    "eval_mean_return",
    "eval_mean_length",
    "value_loss",
    "policy_loss",
    "mean_ir",
    "grad_norm",
    "skipped",
)


def effective_workers(requested: int) -> int:
    """Worker count after the SWARMPLAN_THREADS cap."""
    cap = os.environ.get(THREADS_ENV)
    if cap is None:
        return requested
    cap = int(cap)
    if cap < 1:
        raise LearnError(f"{THREADS_ENV} must be >= 1")
    return min(requested, cap)


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
        total += sum(step.reward for step in chunk.steps)
        length += len(chunk)
        if chunk.terminal_tail:
            return total, length


def evaluate_policy(env_factory, model, inference, cfg, episodes: int,
                    seed_base: int):
    """Mean return and mean episode length over fixed evaluation seeds."""
    rng = np.random.default_rng(seed_base)
    returns = []
    lengths = []
    for k in range(episodes):
        ret, length = play_episode(env_factory(), model, inference, cfg, rng,
                                   seed=seed_base + k)
        returns.append(ret)
        lengths.append(length)
    return float(np.mean(returns)), float(np.mean(lengths))


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
    eval_episodes: int = 8,
    eval_seed_base: int = 10_000,
    metrics_path=None,
    max_seconds=None,
) -> TrainResult:
    """Run `total_updates` synchronous A2C updates in place.

    A budget of zero leaves the parameters untouched. `max_seconds`, if
    given, stops early once the wall clock is exhausted (checked between
    updates).
    """
    if total_updates < 0:
        raise LearnError("total_updates must be >= 0")
    num_workers = effective_workers(cfg.workers)
    workers = [
        RolloutWorker(env_factory(), inference, cfg,
                      np.random.default_rng(seed + 7919 * (k + 1)))
        for k in range(num_workers)
    ]
    policy_opt = make_optimizer(cfg.optimizer, cfg.lr_policy)
    value_opt = make_optimizer(cfg.optimizer, cfg.lr_value)
    rows = []
    env_steps = 0
    updates = 0
    start = time.perf_counter()
    for update in range(total_updates):
        for worker in workers:
            worker.set_model(model)
        chunks = []
        turn = 0
        while len(chunks) < cfg.batch_chunks:
            chunks.append(workers[turn % num_workers].collect_chunk())
            turn += 1
        env_steps += sum(len(chunk) for chunk in chunks)
        diag = a2c_update(model, critic, chunks, cfg, policy_opt, value_opt)
        updates += 1
        row = {
            "wall_clock": time.perf_counter() - start,
            "env_steps": env_steps,
            "updates": updates,
            "eval_mean_return": "",
            "eval_mean_length": "",
            "value_loss": diag.value_loss,
            "policy_loss": diag.policy_loss,
            "mean_ir": diag.mean_ir,
            "grad_norm": diag.grad_norm,
            "skipped": int(diag.skipped),
        }
        last = update == total_updates - 1
        out_of_time = max_seconds is not None and row["wall_clock"] > max_seconds
        if eval_every and (updates % eval_every == 0 or last or out_of_time):
            ret, length = evaluate_policy(env_factory, model, inference, cfg,
                                          eval_episodes, eval_seed_base)
            row["eval_mean_return"] = ret
            row["eval_mean_length"] = length
        rows.append(row)
        if out_of_time:
            break
    if metrics_path is not None:
        write_metrics(metrics_path, rows)
    return TrainResult(model, critic, rows, env_steps, updates)
