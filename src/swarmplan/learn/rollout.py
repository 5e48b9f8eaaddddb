"""Meta-environment adapters and trajectory collection.

An observation is (agent features, task features, optional pair extras,
constraints) in every domain; an `ObservationStack` holds those of L
lanes on a leading lane axis, the constraints as contributions mu and
capacities u. A collector steps its rollout lanes in lockstep under one
model snapshot, each lane an environment with its own rng and episode.
One lane pool, built from the collector's environments, owns their
state: `reset(rows, seeds)` returns the lanes' first observations as a
stack, and `step(rows, targets)` their next ones, with rewards and
terminal flags. `RescueLanes` keeps its lanes as the rows of one
`GridState`; `StackingLanes` resets and steps other environments
(battle's) one at a time and stacks their observations. A training run
sees one instance size, so every lane of a collector holds one (n, m).

A lockstep step gathers the stepped lanes' rows, scores them with one
pass of each net, samples their noise with one lane-axis
`NoiseWindows` call per table kind, matches them in one stack
(`infer_stack` gives one (L, n) target array) and advances them by one
pool `step`. A round records its steps as those stacked arrays
(`StepStack`), so no per-lane, per-step object is built. A lane's chunk
of up to N steps is its rows of them, with their rewards and terminal
flags and the place of its bootstrap observation; `Chunk.steps` builds
`StepRecord`s on demand, for checks. A `RolloutWorker` is the one-lane
collector.
"""
from __future__ import annotations

from bisect import bisect_right
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
from ..rescue import STEP_REWARD, GridState, RescueConfig, capacities, extract_features
from ..rescue import step as rescue_step
from .config import A2CConfig, LearnError
from .noise import NoiseWindows


@dataclass
class Observation:
    agent_feats: np.ndarray
    task_feats: np.ndarray
    pair_extras: np.ndarray | None
    cons: ConstraintSet


@dataclass(eq=False)
class ObservationStack:
    """The observations of L lanes of one (n, m), on a leading lane axis:
    agents (L, n, da), tasks (L, m, dt), extras (L, n, m, de) or None,
    contributions mu (L, n, m) and capacities u (L, m)."""

    agents: np.ndarray
    tasks: np.ndarray
    extras: np.ndarray | None
    mu: np.ndarray
    u: np.ndarray

    @classmethod
    def of(cls, observations) -> "ObservationStack":
        """The stack of a sequence of Observations."""
        extras = None if observations[0].pair_extras is None else np.array(
            [obs.pair_extras for obs in observations])
        return cls(np.array([obs.agent_feats for obs in observations]),
                   np.array([obs.task_feats for obs in observations]), extras,
                   np.array([obs.cons.mu for obs in observations]),
                   np.array([obs.cons.u for obs in observations]))

    def fields(self) -> tuple:
        return self.agents, self.tasks, self.extras, self.mu, self.u

    def rows(self, lanes) -> "ObservationStack":
        """A copy of the rows `lanes` (an index array)."""
        return ObservationStack(*(None if a is None else a[lanes] for a in self.fields()))

    def lane(self, k: int) -> Observation:
        """Lane k as an Observation of views into the stack."""
        return Observation(self.agents[k], self.tasks[k],
                           None if self.extras is None else self.extras[k],
                           ConstraintSet(self.mu[k], self.u[k]))


class RescueLanes:
    """The lane pool of rescue environments: lane k is row k of one
    GridState, `state`, which every environment's `state` names too, for
    readers after an episode. The lanes hold one (n, m) and one step cap.

    `rows` is an index array of lanes (all of them where `step` gets
    None). The arrays returned are fresh. The constraints are those of
    `build_constraints`: every contribution is 1, and the capacities are
    `capacities`."""

    def __init__(self, envs):
        configs = [env.config for env in envs]
        shapes = [(cfg.n, cfg.m, cfg.max_steps) for cfg in configs]
        for k, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise LearnError(f"lane {k} holds (n, m, max_steps) = {shape}, lane 0 "
                                 f"{shapes[0]}: the lanes of a collector hold one")
        self.seeds = [cfg.seed for cfg in configs]
        self.max_steps = shapes[0][2]
        self.state = GridState.empty(len(envs), *shapes[0][:2])
        for env in envs:
            env.state = self.state

    def _observe(self, rows) -> ObservationStack:
        agents, tasks = extract_features(self.state, rows)
        return ObservationStack(agents, tasks, None,
                                np.ones((len(agents), agents.shape[1], tasks.shape[1])),
                                capacities(self.state, rows))

    def reset(self, rows, seeds) -> ObservationStack:
        """Start a fresh episode on each lane of `rows`, drawn as `spawn`
        draws from its seed (its config's where the seed is None)."""
        self.state.respawn(rows, [self.seeds[k] if seed is None else seed
                                  for k, seed in zip(rows, seeds)])
        return self._observe(rows)

    def step(self, rows, targets) -> tuple:
        """Advance the lanes `rows` by one `rescue.step` each."""
        done = rescue_step(self.state, targets, self.max_steps, rows)
        return self._observe(rows), np.full(len(targets), STEP_REWARD), done


class StackingLanes:
    """The lane pool of environments with `reset(seed)` and
    `step(assignment)`, such as battle's: it resets and steps them one at
    a time and stacks their observations, with `RescueLanes`'s `rows`.
    Every lane holds the (n, m) of the first reset."""

    def __init__(self, envs):
        self.envs = envs
        self.size = None  # from the first reset on

    def reset(self, rows, seeds) -> ObservationStack:
        observations = [self.envs[k].reset(seed=seed) for k, seed in zip(rows, seeds)]
        for k, obs in zip(rows, observations):
            size = (obs.agent_feats.shape[0], obs.task_feats.shape[0])
            self.size = self.size or size
            if size != self.size:
                raise LearnError(f"lane {k} reset to (n, m) = {size}; "
                                 f"the collector holds {self.size}")
        return ObservationStack.of(observations)

    def step(self, rows, targets) -> tuple:
        envs = self.envs if rows is None else [self.envs[k] for k in rows]
        observations, rewards, done = zip(*(env.step(Assignment(target))
                                            for env, target in zip(envs, targets)))
        return (ObservationStack.of(observations), np.array(rewards, dtype=float),
                np.array(done, dtype=bool))


class RescueMetaEnv:
    """A rescue environment (one assignment per step): its config, and
    `state`, the GridState of the lane pool that last took it."""

    num_kinds = 2
    feature_dim = 3  # victims carry the widest feature vector

    def __init__(self, config: RescueConfig):
        self.config = config
        self.state = None

    def reset(self, seed=None) -> Observation:
        """The first observation of a fresh episode on a one-lane pool."""
        return RescueLanes([self]).reset([0], [seed]).lane(0)


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


@dataclass
class StepRecord:
    obs: Observation
    sampled_h: np.ndarray
    sampled_g: np.ndarray | None
    assignment: Assignment
    reward: float
    terminal: bool


class StepStack:
    """The steps of one round, stacked: per lockstep step, its lanes'
    observations (an ObservationStack), sampled h (L, n, m) and g
    (L, m, m) or None and targets (L, n), in lane order. The rows of a
    round count on across its steps: step t holds rows starts[t] to
    starts[t] + L - 1. All rows hold one (n, m), `size`."""

    def __init__(self):
        self.size = None
        self.starts = []
        self.count = 0  # rows so far
        self.obs, self.sampled_h, self.sampled_g, self.targets = [], [], [], []

    def add(self, obs: ObservationStack, sampled_h, sampled_g, targets) -> int:
        """Record one step; returns the row of its first lane."""
        start = self.count
        self.size = self.size or (obs.agents.shape[1], obs.tasks.shape[1])
        self.starts.append(start)
        self.count += len(targets)
        self.obs.append(obs)
        self.sampled_h.append(sampled_h)
        self.sampled_g.append(sampled_g)
        self.targets.append(targets)
        return start

    def record(self, row: int, reward: float, terminal: bool) -> StepRecord:
        """Row `row` as a StepRecord of views into the stack."""
        t = bisect_right(self.starts, row) - 1
        k = row - self.starts[t]
        g = self.sampled_g[t]
        return StepRecord(self.obs[t].lane(k), self.sampled_h[t][k], None if g is None else g[k],
                          Assignment(self.targets[t][k]), reward, terminal)


class Chunk:
    """Up to N consecutive steps of one lane: its `rows` of a round's
    StepStack `stack`, their `rewards` and `terminal` flags, whether the
    last one ended the episode (`terminal_tail`), and `bootstrap_at`,
    (ObservationStack, row) of the observation after the last step, or
    None after a terminal one.

    `steps` is a read-only view that builds fresh objects on every read;
    the update and the training loop read the arrays.
    """

    def __init__(self, stack: StepStack, rows: list, rewards: list, terminal: list,
                 bootstrap_at):
        self.stack, self.rows, self.terminal_tail = stack, rows, terminal[-1]
        self.rewards, self.terminal, self.bootstrap_at = rewards, terminal, bootstrap_at

    def __len__(self):
        return len(self.rows)

    @property
    def steps(self) -> list:
        return [self.stack.record(*step) for step in zip(self.rows, self.rewards, self.terminal)]


class RolloutLanes:
    """Several environments ("lanes") stepped in lockstep; emits chunks.

    Each lane keeps its environment, rng and episode across rounds; one
    lane pool, `pool`, owns their state. Their current observations are
    the rows of one ObservationStack, `obs`, and their noise windows the
    rows of one lane-axis NoiseWindows per table kind, `h_noise` and
    `g_noise`. The first round starts every lane's first episode, later
    rounds the next episode of each lane whose last one ended, with one
    pool `reset` per round. A round collects one chunk from each of the
    first `count` lanes, in lane order, stepping together every lane
    still inside its chunk. Chunks never cross episode boundaries: a
    10-step episode with N=4 yields chunks of 4, 4 and 2 steps, and a
    lane whose chunk ended early waits for the rest of the round.

    The arrays that the pool returns are fresh, and the collector keeps
    them: a step of every lane records `obs` as it is and takes the
    returned stack as the next; a step or a reset of some lanes writes
    theirs back, and a step records a copy of their rows. A round ends
    by copying the rows of its unfinished lanes once, for its chunks'
    bootstrap observations.
    """

    def __init__(self, envs, inference: str, cfg: A2CConfig, rngs,
                 episode_seeds=None):
        get_procedure(inference)  # reject an unknown name before any step
        envs = list(envs)
        self.lane_count = len(envs)
        self.pool = (RescueLanes if isinstance(envs[0], RescueMetaEnv) else StackingLanes)(envs)
        self.inference = inference
        self.uses_g = inference == "quad"
        self.cfg = cfg
        self.rngs = list(rngs)
        if episode_seeds is None:
            episode_seeds = [None] * self.lane_count
        self.episode_seeds = [None if seeds is None else iter(seeds)
                              for seeds in episode_seeds]
        self.model: ScoringModel | None = None
        self.obs = None  # every lane's current observation, from the first reset on
        self.in_episode = [False] * self.lane_count
        self.h_noise = self.g_noise = None  # from the first reset on

    def set_model(self, model: ScoringModel):
        """Install an immutable parameter snapshot for upcoming steps."""
        self.model = model.copy()

    def _write(self, lanes, fields):
        """Overwrite the rows `lanes` of `obs` with `fields`."""
        for rows, new in zip(self.obs.fields(), fields):
            if rows is not None:
                rows[lanes] = new

    def _begin_episodes(self, lanes: list):
        """A fresh episode on each lane of `lanes`, from one pool `reset`;
        the first call holds every lane."""
        seeds = [int(self.rngs[k].integers(2 ** 31 - 1)) if self.episode_seeds[k] is None
                 else next(self.episode_seeds[k]) for k in lanes]
        index = np.array(lanes)
        obs = self.pool.reset(index, seeds)
        if self.obs is None:
            n, m = obs.agents.shape[1], obs.tasks.shape[1]
            self.obs = obs
            self.h_noise = NoiseWindows((n, m), self.cfg.p, lanes=self.lane_count)
            if self.uses_g:
                self.g_noise = NoiseWindows((m, m), self.cfg.p, lanes=self.lane_count)
        else:
            self._write(index, obs.fields())
            for noise in (self.h_noise, self.g_noise):
                if noise is not None:
                    noise.reset(index)
        for k in lanes:
            self.in_episode[k] = True

    def _step(self, lanes, steps: StepStack):
        """One lockstep step of `lanes`: one scoring pass, one noise draw
        per table kind, one stacked assignment and one pool `step`,
        recorded in `steps`; returns the row of the first lane, the
        rewards and the terminal flags."""
        every = len(lanes) == self.lane_count
        index = None if every else np.array(lanes)
        obs = self.obs if every else self.obs.rows(index)
        h, g = score_pair_stack(self.model, obs.agents, obs.tasks, obs.extras)
        if not np.isfinite(h).all():
            raise AssignError("h contains non-finite values")
        if g is not None and not np.isfinite(g).all():
            raise AssignError("g contains non-finite values")
        rngs = [self.rngs[k] for k in lanes]
        sampled_h = self.h_noise.sample(h, self.cfg.sigma, rngs, index)
        sampled_g = None
        if self.uses_g:
            if g is None:
                raise LearnError("quad inference needs a model with a g net")
            sampled_g = self.g_noise.sample(g, self.cfg.sigma, rngs, index)
        targets = infer_stack(self.inference, sampled_h, sampled_g, obs.mu, obs.u)
        next_obs, rewards, done = self.pool.step(index, targets)
        if every:
            self.obs = next_obs
        else:
            self._write(index, next_obs.fields())
        return steps.add(obs, sampled_h, sampled_g, targets), rewards, done

    def collect_round(self, count: int | None = None) -> list:
        """One chunk from each of the first `count` lanes (all by default)."""
        if self.model is None:
            raise LearnError("set_model() before collecting")
        lanes = range(self.lane_count if count is None else count)
        starting = [k for k in (range(self.lane_count) if self.obs is None else lanes)
                    if not self.in_episode[k]]
        if starting:
            self._begin_episodes(starting)
        steps = StepStack()
        rows, rewards, ended = ([[] for _ in lanes] for _ in range(3))
        active = list(lanes)
        for _ in range(self.cfg.n_steps):
            start, reward, done = self._step(active, steps)
            still = []
            for i, k, r, end in zip(range(start, start + len(active)), active,
                                    reward.tolist(), done.tolist()):
                rows[k].append(i)
                rewards[k].append(r)
                ended[k].append(end)
                if not end:
                    still.append(k)
            active = still
            if not active:
                break
        going = [k for k in lanes if not ended[k][-1]]
        tails = self.obs.rows(np.array(going, dtype=np.intp))
        at = {k: i for i, k in enumerate(going)}  # each one's row of `tails`
        chunks = []
        for k in lanes:
            self.in_episode[k] = k in at  # after a terminal step, a fresh episode
            chunks.append(Chunk(steps, rows[k], rewards[k], ended[k],
                                (tails, at[k]) if k in at else None))
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
