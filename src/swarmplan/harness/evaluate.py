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
from ..learn import A2CConfig, BattleMetaEnv, RescueMetaEnv, evaluate_policy
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
    played = evaluate_policy(lambda: RescueMetaEnv(config), model, inference, a2c, seeds)
    failures = sum(length >= config.max_steps and not env.state.all_picked
                   for env, _, length in played)
    return _summarize([length - 1 for _, _, length in played], failures, "episode_length",
                      {"mean_return": float(np.mean([ret for _, ret, _ in played]))})


def _battle_summary(returns, outcomes) -> EvalSummary:
    return _summarize(returns, outcomes.count("draw"), "return",
                      {"win_rate": outcomes.count("win") / len(outcomes)})


def evaluate_battle_heuristic(kind: str, scenario: str, seeds) -> EvalSummary:
    """Scripted-heuristic returns, one battle per seed."""
    if kind not in HEURISTICS:
        raise HarnessError(f"kind must be one of {HEURISTICS}")
    returns = []
    outcomes = []
    for seed in seeds:
        state = spawn_battle(load_scenario(scenario, seed=seed))
        policy = heuristic_policy(kind, rng=np.random.default_rng(seed))
        total = 0.0
        done = False
        while not done:
            reward, done, _ = step_battle(state, policy(state))
            total += reward
        returns.append(total)
        outcomes.append(state.outcome)
    return _battle_summary(returns, outcomes)


def evaluate_battle_model(model: ScoringModel, inference: str, a2c: A2CConfig,
                          scenario: str, seeds) -> EvalSummary:
    """Learned-policy returns with exploration noise on, one battle per seed."""
    config = load_scenario(scenario)  # every episode resets with its own seed
    played = evaluate_policy(lambda: BattleMetaEnv(config), model, inference, a2c, seeds)
    return _battle_summary([ret for _, ret, _ in played],
                           [env.state.outcome for env, _, _ in played])


def evaluate(policy, environment: str, scenario: str, eval_seeds,
             inference: str = "lp", a2c: A2CConfig | None = None) -> EvalSummary:
    """Dispatch: `policy` is a reference/heuristic name or a ScoringModel.

    The checkpoint/scenario pairing is validated up front; a model whose
    feature dimensions do not match the scenario is rejected rather than
    silently coerced.
    """
    if len(eval_seeds) == 0:
        raise HarnessError("evaluation needs at least one seed")
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


def feature_dims(env) -> tuple:
    """(agent, task, pair-extra) feature widths of `env`'s observations."""
    obs = env.reset(seed=0)
    return (obs.agent_feats.shape[1], obs.task_feats.shape[1],
            0 if obs.pair_extras is None else obs.pair_extras.shape[-1])


def _check_model(model: ScoringModel, probe_env, inference: str):
    expects = (model.feature_dim_agent, model.feature_dim_task, model.pair_extra_dim)
    provides = feature_dims(probe_env)
    if expects != provides:
        raise HarnessError(
            f"checkpoint expects features {expects}, scenario provides {provides}")
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
