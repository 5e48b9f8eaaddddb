"""Meta-environment adapters and trajectory collection.

An observation is (agent features, task features, optional pair extras,
constraints) in every domain. A collector owns rollout lanes, each an
environment with its own rng, noise windows and episode, and steps them
in lockstep under one model snapshot. A training run sees one instance
size, so every lane of a collector holds the same (n, m), and a lane
that resets to another raises `LearnError`. Each lockstep step scores
all its lanes with one pass of each net, matches them in one stack
(unit-demand LP) and advances them by one `step_lanes` call of their
environment class. Rescue lanes share one lane-axis `GridState`; battle
lanes step one at a time.
Lanes emit chunks of up to N steps holding the observations, sampled
score tables, assignments, rewards and terminal flags that the update
rescores. A `RolloutWorker` is the one-lane collector.
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
from ..rescue import (STEP_REWARD, RescueConfig, RescueError, build_constraints,
                      extract_features, spawn, stack_lanes)
from ..rescue import step as rescue_step
from .config import A2CConfig, LearnError
from .noise import NoiseWindows


@dataclass
class Observation:
    agent_feats: np.ndarray
    task_feats: np.ndarray
    pair_extras: np.ndarray | None
    cons: ConstraintSet


class RescueMetaEnv:
    """One rescue lane (one assignment per step): row `lane` of the
    GridState `state` it shares with the lanes it steps with. Its
    ConstraintSet `cons` is rebuilt only when a pick-up changes u."""

    num_kinds = 2
    feature_dim = 3  # victims carry the widest feature vector

    def __init__(self, config: RescueConfig):
        self.config = config
        self.state = self.cons = None
        self.lane = 0

    def reset(self, seed=None) -> Observation:
        spawned = spawn(self.config if seed is None else replace(self.config, seed=seed))
        self.state = spawned if self.state is None else self.state.put(self.lane, spawned)
        agents, tasks = extract_features(spawned)
        self.cons = build_constraints(spawned)
        return Observation(agents[0], tasks[0], None, self.cons)

    @staticmethod
    def step_lanes(envs, assignments) -> list:
        """Advance lanes of equal (n, m) by one `rescue.step` on the state
        they share; returns (observation, reward, done) per lane."""
        state = envs[0].state
        if any(env.state is not state for env in envs):  # first step together
            if len({(env.config.grid_size, env.config.max_steps) for env in envs}) > 1:
                raise RescueError("lanes stepped together need one grid size and step cap")
            state = stack_lanes([(env.state, env.lane) for env in envs])
            for k, env in enumerate(envs):
                env.state, env.lane = state, k
        rows = [env.lane for env in envs]
        lanes = None if rows == list(range(len(state.step_count))) else np.array(rows)
        done, gained = rescue_step(state, np.array([a.target for a in assignments]),
                                   envs[0].config.max_steps, lanes)
        agents, tasks = extract_features(state, lanes)
        out = []
        for k, (env, new, end) in enumerate(zip(envs, gained.tolist(), done.tolist())):
            if new:
                env.cons = build_constraints(state, env.lane)
            out.append((Observation(agents[k], tasks[k], None, env.cons), STEP_REWARD, end))
        return out


class BattleMetaEnv:
    """Battle as a meta-environment (one assignment window per step)."""

    num_kinds = 2

    def __init__(self, config):
        self.config = config
        self.state = None
        self.feature_dim = battle_feature_dim(config)

    def _observe(self) -> Observation:
        agents, tasks, extras = extract_battle_features(self.state)
        return Observation(agents, tasks, extras, build_battle_constraints(self.state))

    def reset(self, seed=None) -> Observation:
        cfg = self.config if seed is None else replace(self.config, seed=seed)
        self.state = spawn_battle(cfg)
        return self._observe()

    def step(self, assignment: Assignment):
        reward, done, _ = step_battle(self.state, assignment)
        return self._observe(), reward, done

    @staticmethod
    def step_lanes(envs, assignments) -> list:
        """Advance each lane on its own; (observation, reward, done) per lane."""
        return [env.step(assignment) for env, assignment in zip(envs, assignments)]


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
    bootstrap: Observation | None  # the state after the last step
    terminal_tail: bool

    def __len__(self):
        return len(self.steps)


class RolloutLanes:
    """Several environments ("lanes") stepped in lockstep; emits chunks.

    Each lane keeps its environment, rng, noise windows and episode
    across rounds; all lanes hold one (n, m). A round collects one chunk
    from each of the first `count` lanes, in lane order, stepping
    together every lane still inside its chunk. Chunks never cross
    episode boundaries: a 10-step episode with N=4 yields chunks of 4, 4
    and 2 steps, and a lane whose chunk ended early waits for the rest
    of the round.
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
        self.size = None  # the (n, m) of every lane, from the first reset on

    def set_model(self, model: ScoringModel):
        """Install an immutable parameter snapshot for upcoming steps."""
        self.model = model.copy()

    def _begin_episode(self, k: int):
        seeds = self.episode_seeds[k]
        seed = int(self.rngs[k].integers(2 ** 31 - 1)) if seeds is None else next(seeds)
        self.obs[k] = obs = self.envs[k].reset(seed=seed)
        n, m = obs.agent_feats.shape[0], obs.task_feats.shape[0]
        self.size = self.size or (n, m)
        if (n, m) != self.size:
            raise LearnError(f"lane {k} reset to (n, m) = {(n, m)}; "
                             f"the collector holds {self.size}")
        self.h_windows[k] = NoiseWindows((n, m), self.cfg.p)
        if self.uses_g:
            self.g_windows[k] = NoiseWindows((m, m), self.cfg.p)

    def _sample(self, lanes, windows, means) -> list:
        return [windows[k].sample(mean, self.cfg.sigma, self.rngs[k])
                for k, mean in zip(lanes, means)]

    def _step(self, lanes) -> list:
        """One lockstep step of `lanes`: one scoring pass, one stacked
        assignment and one `step_lanes` call; returns their records in
        lane order."""
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
        envs = [self.envs[k] for k in lanes]
        records = []
        for k, o, s_h, s_g, assignment, (next_obs, reward, done) in zip(
                lanes, obs, sampled_h, sampled_g, assignments,
                type(envs[0]).step_lanes(envs, assignments)):
            records.append(StepRecord(o, s_h, s_g, assignment, reward, done))
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
                chunks.append(Chunk(steps[k], self.obs[k], False))
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

