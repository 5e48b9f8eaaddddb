"""Meta-environment adapters and trajectory collection.

The learner sees every domain through the same lens: an observation is
(agent features, task features, optional pair extras, constraints,
critic entities). Workers snapshot the scoring model, roll the
environment with correlated exploration noise, and emit fixed-length
chunks that carry everything the updater needs, including the behavior
log-likelihoods for importance weighting.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..assign import Assignment, ConstraintSet, ScoreTable, get_procedure
from ..battle import (
    build_battle_constraints,
    extract_battle_features,
    feature_dim as battle_feature_dim,
    spawn_battle,
    step_battle,
)
from ..nets import ScoringModel, score_pairs
from ..rescue import RescueConfig, build_constraints, extract_features, spawn
from ..rescue import step as rescue_step
from .config import A2CConfig, LearnError
from .noise import NoiseWindows


@dataclass
class Observation:
    agent_feats: np.ndarray
    task_feats: np.ndarray
    pair_extras: np.ndarray | None
    cons: ConstraintSet
    entities: list  # [(kind, features)] for the critic


class RescueMetaEnv:
    """Rescue episode as a meta-environment (one assignment per step)."""

    num_kinds = 2
    feature_dim = 3  # victims carry the widest feature vector

    def __init__(self, config: RescueConfig):
        self.config = config
        self.state = None

    def _observe(self) -> Observation:
        agents, tasks = extract_features(self.state)
        entities = [(0, row) for row in agents] + [(1, row) for row in tasks]
        return Observation(agents, tasks, None, build_constraints(self.state), entities)

    def reset(self, seed=None) -> Observation:
        cfg = self.config if seed is None else RescueConfig(
            self.config.n, self.config.m, seed, self.config.max_steps,
            self.config.grid_size)
        self.state = spawn(cfg)
        return self._observe()

    def step(self, assignment: Assignment):
        self.state, reward, done = rescue_step(
            self.state, assignment, self.config.max_steps)
        return self._observe(), reward, done

    @property
    def n(self):
        return self.config.n

    @property
    def m(self):
        return self.config.m


class BattleMetaEnv:
    """Battle as a meta-environment (one assignment window per step)."""

    num_kinds = 2

    def __init__(self, config):
        self.config = config
        self.state = None
        self.feature_dim = battle_feature_dim(config)

    def _observe(self) -> Observation:
        agents, tasks, extras = extract_battle_features(self.state)
        entities = [(0, row) for row in agents] + [(1, row) for row in tasks]
        return Observation(agents, tasks, extras,
                           build_battle_constraints(self.state), entities)

    def reset(self, seed=None) -> Observation:
        cfg = self.config
        if seed is not None:
            from dataclasses import replace
            cfg = replace(cfg, seed=seed)
            self.config = cfg
        self.state = spawn_battle(cfg)
        return self._observe()

    def step(self, assignment: Assignment):
        reward, done, _ = step_battle(self.state, assignment)
        return self._observe(), reward, done

    @property
    def n(self):
        return len(self.config.ours)

    @property
    def m(self):
        return len(self.config.theirs)


def gaussian_loglik(sample: np.ndarray, mean: np.ndarray, variance: float) -> float:
    """Joint log-density of independent N(mean, variance) entries."""
    diff = np.asarray(sample) - np.asarray(mean)
    k = diff.size
    return float(-(diff ** 2).sum() / (2.0 * variance)
                 - 0.5 * k * np.log(2.0 * np.pi * variance))


@dataclass
class StepRecord:
    obs: Observation
    h: np.ndarray
    g: np.ndarray | None
    sampled_h: np.ndarray
    sampled_g: np.ndarray | None
    assignment: Assignment
    log_l_old: float
    reward: float
    terminal: bool


@dataclass
class Chunk:
    steps: list
    bootstrap_entities: list | None  # state after the last step
    terminal_tail: bool

    def __len__(self):
        return len(self.steps)


class RolloutWorker:
    """Owns one environment and its exploration state; emits chunks.

    Chunks never cross episode boundaries: a 10-step episode with N=4
    yields chunks of 4, 4 and 2 steps.
    """

    def __init__(self, meta_env, inference: str, cfg: A2CConfig, rng,
                 episode_seeds=None):
        self.env = meta_env
        self.infer = get_procedure(inference)
        self.uses_g = inference == "quad"
        self.cfg = cfg
        self.rng = rng
        self.model: ScoringModel | None = None
        self.episode_seeds = iter(episode_seeds) if episode_seeds is not None else None
        self.h_windows = None
        self.g_windows = None
        self.obs = None
        self.env_steps = 0

    def set_model(self, model: ScoringModel):
        """Install an immutable parameter snapshot for upcoming steps."""
        self.model = model.copy()

    def _next_seed(self):
        if self.episode_seeds is None:
            return int(self.rng.integers(2 ** 31 - 1))
        return next(self.episode_seeds)

    def _begin_episode(self):
        self.obs = self.env.reset(seed=self._next_seed())
        n, m = self.obs.agent_feats.shape[0], self.obs.task_feats.shape[0]
        self.h_windows = NoiseWindows((n, m), self.cfg.p, self.cfg.noise_mode)
        if self.uses_g:
            self.g_windows = NoiseWindows((m, m), self.cfg.p, self.cfg.noise_mode)

    def _one_step(self) -> StepRecord:
        if self.model is None:
            raise LearnError("set_model() before collecting")
        obs = self.obs
        table = score_pairs(self.model, obs.agent_feats, obs.task_feats,
                            pair_extras=obs.pair_extras)
        sampled_h = self.h_windows.sample(table.h, self.cfg.sigma, self.rng)
        sampled_g = None
        log_l = gaussian_loglik(sampled_h, table.h, self.cfg.sigma)
        if self.uses_g:
            if table.g is None:
                raise LearnError("quad inference needs a model with a g net")
            sampled_g = self.g_windows.sample(table.g, self.cfg.sigma, self.rng)
            log_l += gaussian_loglik(sampled_g, table.g, self.cfg.sigma)
        assignment = self.infer(ScoreTable(sampled_h, sampled_g), obs.cons)
        next_obs, reward, done = self.env.step(assignment)
        record = StepRecord(obs, table.h, table.g, sampled_h, sampled_g,
                            assignment, log_l, reward, done)
        self.obs = next_obs
        self.env_steps += 1
        return record

    def collect_chunk(self) -> Chunk:
        if self.obs is None:
            self._begin_episode()
        steps = []
        while len(steps) < self.cfg.n_steps:
            record = self._one_step()
            steps.append(record)
            if record.terminal:
                tail_entities = None
                self.obs = None  # next collect starts a fresh episode
                return Chunk(steps, tail_entities, True)
        return Chunk(steps, self.obs.entities, False)


def worker_rollout(meta_env, model, inference, cfg, rng, num_chunks=1,
                   episode_seeds=None):
    """Convenience wrapper: collect `num_chunks` chunks with fixed params."""
    worker = RolloutWorker(meta_env, inference, cfg, rng, episode_seeds)
    worker.set_model(model)
    return [worker.collect_chunk() for _ in range(num_chunks)]
