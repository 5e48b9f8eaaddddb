"""Seeded evaluation sets and summary statistics.

Rescue episode lengths are reported as completion times, i.e. the index
of the step on which the last victim is picked up with steps counted
from zero — one less than the raw number of environment transitions.
The evaluation seed set is a fixed global constant so the summary
numbers are stable across machines.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..battle import heuristic_policy, load_scenario, spawn_battle, step_battle
from ..battle import HEURISTICS
from ..learn import A2CConfig, BattleMetaEnv, RescueMetaEnv, play_episode
from ..nets import ScoringModel
from ..rescue import (
    RescueConfig,
    closest_baseline,
    mvr_exact,
    plan_policy,
    run_episode,
    spawn,
)
from .config import HarnessError, parse_rescue_size

RESCUE_EVAL_SEED_BASE = 2000
RESCUE_EVAL_SEEDS = tuple(range(RESCUE_EVAL_SEED_BASE, RESCUE_EVAL_SEED_BASE + 1000))
BATTLE_EVAL_SEED_BASE = 5000

RESCUE_REFERENCE_POLICIES = ("closest", "topline")


@dataclass
class EvalSummary:
    mean: float
    stderr: float
    episodes: int
    failures: int        # episodes that hit the step/frame cap
    metric: str          # "episode_length", "return" or "win_rate"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "episodes": self.episodes,
            "failures": self.failures,
            "metric": self.metric,
            **self.extra,
        }


def _summarize(values, failures, metric, extra=None) -> EvalSummary:
    values = np.asarray(values, dtype=float)
    stderr = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return EvalSummary(float(values.mean()), stderr, int(values.size),
                       int(failures), metric, extra or {})


def evaluate_rescue_reference(kind: str, n: int, m: int,
                              seeds=RESCUE_EVAL_SEEDS) -> EvalSummary:
    """Closest-victim baseline or exact-routing topline episode lengths."""
    if kind not in RESCUE_REFERENCE_POLICIES:
        raise HarnessError(f"kind must be one of {RESCUE_REFERENCE_POLICIES}")
    config = RescueConfig(n, m, seed=0)
    lengths = []
    failures = 0
    for seed in seeds:
        if kind == "closest":
            policy = closest_baseline
        else:
            # plan the exact routes on the same spawn the episode will use
            policy = plan_policy(mvr_exact(spawn(RescueConfig(n, m, seed=seed))))
        steps, _, capped = run_episode(config, policy, seed=seed)
        lengths.append(steps - 1)
        failures += capped
    return _summarize(lengths, failures, "episode_length")


def evaluate_rescue_model(model: ScoringModel, inference: str, a2c: A2CConfig,
                          n: int, m: int, seeds=RESCUE_EVAL_SEEDS) -> EvalSummary:
    """Learned-policy episode lengths with exploration noise on."""
    config = RescueConfig(n, m, seed=0)
    rng = np.random.default_rng(seeds[0])
    lengths = []
    returns = []
    failures = 0
    for seed in seeds:
        env = RescueMetaEnv(config)
        ret, raw_steps = play_episode(env, model, inference, a2c, rng, seed=seed)
        lengths.append(raw_steps - 1)
        returns.append(ret)
        failures += raw_steps >= config.max_steps and not env.state.all_picked
    return _summarize(lengths, failures, "episode_length",
                      {"mean_return": float(np.mean(returns))})


def evaluate_battle_heuristic(kind: str, scenario: str, seeds) -> EvalSummary:
    """Scripted-heuristic returns, one battle per seed."""
    if kind not in HEURISTICS:
        raise HarnessError(f"kind must be one of {HEURISTICS}")
    returns = []
    wins = 0
    failures = 0
    for seed in seeds:
        state = spawn_battle(load_scenario(scenario, seed=seed))
        policy = heuristic_policy(kind, rng=np.random.default_rng(seed))
        total = 0.0
        done = False
        while not done:
            reward, done, outcome = step_battle(state, policy(state))
            total += reward
        returns.append(total)
        wins += state.outcome == "win"
        failures += state.outcome == "draw"
    return _summarize(returns, failures, "return",
                      {"win_rate": wins / len(returns)})


def evaluate_battle_model(model: ScoringModel, inference: str, a2c: A2CConfig,
                          scenario: str, seeds) -> EvalSummary:
    """Learned-policy returns with exploration noise on, one battle per seed."""
    rng = np.random.default_rng(seeds[0])
    returns = []
    wins = 0
    failures = 0
    for seed in seeds:
        env = BattleMetaEnv(load_scenario(scenario, seed=seed))
        ret, _ = play_episode(env, model, inference, a2c, rng, seed=seed)
        returns.append(ret)
        wins += env.state.outcome == "win"
        failures += env.state.outcome == "draw"
    return _summarize(returns, failures, "return",
                      {"win_rate": wins / len(returns)})


def evaluate(policy, environment: str, scenario: str, eval_seeds,
             inference: str = "lp", a2c: A2CConfig | None = None) -> EvalSummary:
    """Dispatch: `policy` is a reference/heuristic name or a ScoringModel.

    The checkpoint/scenario pairing is validated up front; a model whose
    feature dimensions do not match the scenario is rejected rather than
    silently coerced.
    """
    a2c = a2c or A2CConfig()
    if environment == "rescue":
        n, m = parse_rescue_size(scenario)
        if isinstance(policy, str):
            return evaluate_rescue_reference(policy, n, m, eval_seeds)
        _check_model(policy, RescueMetaEnv(RescueConfig(n, m, seed=0)), inference)
        return evaluate_rescue_model(policy, inference, a2c, n, m, eval_seeds)
    if environment == "battle":
        if isinstance(policy, str):
            return evaluate_battle_heuristic(policy, scenario, eval_seeds)
        _check_model(policy, BattleMetaEnv(load_scenario(scenario)), inference)
        return evaluate_battle_model(policy, inference, a2c, scenario, eval_seeds)
    raise HarnessError(f"unknown environment {environment!r}")


def _check_model(model: ScoringModel, probe_env, inference: str):
    obs = probe_env.reset(seed=0)
    extra_dim = 0 if obs.pair_extras is None else obs.pair_extras.shape[-1]
    if (model.feature_dim_agent != obs.agent_feats.shape[1]
            or model.feature_dim_task != obs.task_feats.shape[1]
            or model.pair_extra_dim != extra_dim):
        raise HarnessError(
            f"checkpoint expects features "
            f"({model.feature_dim_agent}, {model.feature_dim_task}, "
            f"{model.pair_extra_dim}), scenario provides "
            f"({obs.agent_feats.shape[1]}, {obs.task_feats.shape[1]}, {extra_dim})"
        )
    if inference == "quad" and model.g_net is None:
        raise HarnessError("quad inference needs a checkpoint with a g net")


def oracle_report(n: int, m: int, seed: int) -> dict:
    """JSON-friendly exact routing plan + makespan for one rescue seed."""
    state = spawn(RescueConfig(n, m, seed=seed))
    plan = mvr_exact(state)
    return {
        "seed": seed,
        "size": f"{n}x{m}",
        "routes": [[int(v) for v in route] for route in plan.routes],
        "makespan": int(plan.makespan),
        "completion_time": int(max(plan.makespan, 1) - 1),
    }
