"""Meta-environment adapters and trajectory collection.

The learner sees every domain through the same lens: an observation is
(agent features, task features, optional pair extras, constraints,
critic entities). A collector owns one or more rollout lanes, each an
environment with its own rng, noise windows and episode state. It
snapshots the scoring model and steps its lanes in lockstep: every step
scores the lanes of equal size with one pass of each net, and solves the
unit-demand LP lanes with one stacked matching, while each lane draws its
own correlated exploration noise and steps its own environment. Lanes
emit chunks of up to N steps that carry everything the updater needs:
the observation, the sampled score tables, the assignment, the reward
and the terminal flag. The update rescores the sampled tables under the
same parameters, so chunks carry no log-likelihood of their own.
A `RolloutWorker` is the one-lane collector.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..assign import AssignError, Assignment, ConstraintSet, get_procedure, infer_stack
from ..battle import (
    build_battle_constraints,
    extract_battle_features,
    feature_dim as battle_feature_dim,
    spawn_battle,
    step_battle,
)
from ..nets import ScoringModel, score_pair_stack
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
        cfg = self.config if seed is None else replace(self.config, seed=seed)
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
        cfg = self.config if seed is None else replace(self.config, seed=seed)
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
    diff = np.asarray(sample, dtype=float) - np.asarray(mean, dtype=float)
    return float(-np.sum(diff ** 2) / (2.0 * variance)
                 - 0.5 * diff.size * np.log(2.0 * np.pi * variance))


@dataclass
class StepRecord:
    obs: Observation
    sampled_h: np.ndarray
    sampled_g: np.ndarray | None
    assignment: Assignment
    reward: float
    terminal: bool


@dataclass
class Chunk:
    steps: list
    bootstrap_entities: list | None  # state after the last step
    terminal_tail: bool

    def __len__(self):
        return len(self.steps)


class RolloutLanes:
    """Several environments ("lanes") stepped in lockstep; emits chunks.

    Each lane keeps its environment, rng, noise windows and episode
    across rounds. A round collects one chunk from each of the first
    `count` lanes, in lane order, stepping together every lane still
    inside its chunk. Chunks never cross episode boundaries: a 10-step
    episode with N=4 yields chunks of 4, 4 and 2 steps, and a lane whose
    chunk ended early waits for the rest of the round.
    """

    def __init__(self, envs, inference: str, cfg: A2CConfig, rngs,
                 episode_seeds=None):
        get_procedure(inference)  # reject an unknown name before any step
        self.envs = list(envs)
        self.inference = inference
        self.uses_g = inference == "quad"
        self.cfg = cfg
        self.rngs = list(rngs)
        if episode_seeds is None:
            episode_seeds = [None] * len(self.envs)
        self.episode_seeds = [None if seeds is None else iter(seeds)
                              for seeds in episode_seeds]
        self.model: ScoringModel | None = None
        self.obs = [None] * len(self.envs)
        self.h_windows = [None] * len(self.envs)
        self.g_windows = [None] * len(self.envs)

    def set_model(self, model: ScoringModel):
        """Install an immutable parameter snapshot for upcoming steps."""
        self.model = model.copy()

    def _begin_episode(self, k: int):
        seeds = self.episode_seeds[k]
        seed = int(self.rngs[k].integers(2 ** 31 - 1)) if seeds is None else next(seeds)
        self.obs[k] = obs = self.envs[k].reset(seed=seed)
        n, m = obs.agent_feats.shape[0], obs.task_feats.shape[0]
        self.h_windows[k] = NoiseWindows((n, m), self.cfg.p)
        if self.uses_g:
            self.g_windows[k] = NoiseWindows((m, m), self.cfg.p)

    def _sample(self, lanes, windows, means) -> list:
        return [windows[k].sample(mean, self.cfg.sigma, self.rngs[k])
                for k, mean in zip(lanes, means)]

    def _score_group(self, lanes) -> list:
        """Score, perturb and assign lanes whose observations have equal
        shapes; returns their (sampled h, sampled g, assignment) in lane
        order."""
        obs = [self.obs[k] for k in lanes]
        extras = None if obs[0].pair_extras is None else np.array(
            [o.pair_extras for o in obs])
        h, g = score_pair_stack(self.model, np.array([o.agent_feats for o in obs]),
                                np.array([o.task_feats for o in obs]), extras)
        if not np.isfinite(h).all():
            raise AssignError("h contains non-finite values")
        if g is not None and not np.isfinite(g).all():
            raise AssignError("g contains non-finite values")
        sampled_h = self._sample(lanes, self.h_windows, h)
        sampled_g = [None] * len(lanes)
        stacked_g = None
        if self.uses_g:
            if g is None:
                raise LearnError("quad inference needs a model with a g net")
            sampled_g = self._sample(lanes, self.g_windows, g)
            stacked_g = np.array(sampled_g)
        assignments = infer_stack(self.inference, np.array(sampled_h), stacked_g,
                                  [o.cons for o in obs])
        return list(zip(sampled_h, sampled_g, assignments))

    def _step(self, lanes) -> list:
        """One lockstep step of `lanes`; returns their records in order."""
        groups = {}
        for k in lanes:
            obs = self.obs[k]
            groups.setdefault((obs.agent_feats.shape, obs.task_feats.shape), []).append(k)
        scored = {}
        for group in groups.values():
            scored.update(zip(group, self._score_group(group)))
        records = []
        for k in lanes:
            sampled_h, sampled_g, assignment = scored[k]
            next_obs, reward, done = self.envs[k].step(assignment)
            records.append(StepRecord(self.obs[k], sampled_h, sampled_g,
                                      assignment, reward, done))
            self.obs[k] = next_obs
        return records

    def collect_round(self, count: int | None = None) -> list:
        """One chunk from each of the first `count` lanes (all by default)."""
        if self.model is None:
            raise LearnError("set_model() before collecting")
        lanes = range(len(self.envs) if count is None else count)
        for k in lanes:
            if self.obs[k] is None:
                self._begin_episode(k)
        steps = {k: [] for k in lanes}
        active = list(lanes)
        while active:
            for k, record in zip(active, self._step(active)):
                steps[k].append(record)
            active = [k for k in active
                      if not steps[k][-1].terminal and len(steps[k]) < self.cfg.n_steps]
        chunks = []
        for k in lanes:
            if steps[k][-1].terminal:
                self.obs[k] = None  # the next round starts a fresh episode
                chunks.append(Chunk(steps[k], None, True))
            else:
                chunks.append(Chunk(steps[k], self.obs[k].entities, False))
        return chunks


class RolloutWorker(RolloutLanes):
    """Owns one environment and its exploration state; emits chunks.

    The one-lane case of `RolloutLanes`.
    """

    def __init__(self, meta_env, inference: str, cfg: A2CConfig, rng,
                 episode_seeds=None):
        super().__init__([meta_env], inference, cfg, [rng], [episode_seeds])

    def collect_chunk(self) -> Chunk:
        return self.collect_round()[0]


def worker_rollout(meta_env, model, inference, cfg, rng, num_chunks=1,
                   episode_seeds=None):
    """Convenience wrapper: collect `num_chunks` chunks with fixed params."""
    worker = RolloutWorker(meta_env, inference, cfg, rng, episode_seeds)
    worker.set_model(model)
    return [worker.collect_chunk() for _ in range(num_chunks)]
