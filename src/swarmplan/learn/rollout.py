"""Meta-environment adapters and trajectory collection.

An observation is (agent features, task features, optional pair extras,
constraints) in every domain; an `ObservationStack` holds those of L
lanes on a leading lane axis, the constraints as contributions mu and
capacities u. A collector owns rollout lanes, each an environment with
its own rng and episode, and steps them in lockstep under one model
snapshot. A training run sees one instance size, so every lane of a
collector holds the same (n, m), and a lane that resets to another
raises `LearnError`. The collector keeps its lanes' observations in one
stack and their noise windows in one lane-axis `NoiseWindows` per table
kind. A round first starts the episodes of the lanes whose last one
ended, with one `reset_lanes(envs, seeds)` call of their environment
class, which returns their first observations as a stack. A lockstep
step gathers the stepped lanes' rows, scores them with one pass of each
net, samples their noise with one call per table kind, matches them in
one stack (`infer_stack` gives one (L, n) target array) and advances
them by one `step_lanes(envs, targets)` call, which returns their next
observations as a stack, with rewards and terminal flags, to be written
back. Rescue lanes spawn into and step one shared lane-axis
`GridState`; battle lanes reset and step one at a time and stack their
observations (`stack_resets`, `stack_steps`).

A round records its steps as those stacked arrays (`StepStack`), so no
per-lane, per-step object is built. A lane's chunk of up to N steps is
its rows of them, with their rewards and terminal flags and the place
of its bootstrap observation; `Chunk.steps` builds `StepRecord`s on
demand, for checks and tests. A `RolloutWorker` is the one-lane
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
from ..rescue import (STEP_REWARD, GridState, RescueConfig, RescueError, capacities,
                      extract_features)
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


def stack_steps(results) -> tuple:
    """`step_lanes`'s (ObservationStack, rewards (L,), done (L,)) from one
    (Observation, reward, done) per lane, for environments that step one
    lane at a time."""
    observations, rewards, done = zip(*results)
    return (ObservationStack.of(observations), np.array(rewards, dtype=float),
            np.array(done, dtype=bool))


def _one_size(sizes):
    """Raise LearnError unless every (n, m) of `sizes`, one per lane reset
    together, equals the first."""
    for k, size in enumerate(sizes):
        if size != sizes[0]:
            raise LearnError(f"lane {k} reset to (n, m) = {size}, lane 0 to {sizes[0]}: "
                             "lanes reset together hold one (n, m)")


def stack_resets(envs, seeds) -> ObservationStack:
    """`reset_lanes`'s ObservationStack from one `reset` per lane, for
    environments that reset one lane at a time."""
    observations = [env.reset(seed=seed) for env, seed in zip(envs, seeds)]
    _one_size([(obs.agent_feats.shape[0], obs.task_feats.shape[0]) for obs in observations])
    return ObservationStack.of(observations)


def _unit_mu(agents, tasks) -> np.ndarray:
    """The rescue contributions of a stack: every one is 1, (L, n, m)."""
    return np.ones((len(agents), agents.shape[1], tasks.shape[1]))


class RescueMetaEnv:
    """One rescue lane (one assignment per step): row `lane` of the
    GridState `state` it shares with the lanes it resets and steps with."""

    num_kinds = 2
    feature_dim = 3  # victims carry the widest feature vector

    def __init__(self, config: RescueConfig):
        self.config = config
        self.state = None
        self.lane = 0

    def reset(self, seed=None) -> Observation:
        """The one-lane `reset_lanes`."""
        return self.reset_lanes([self], [seed]).lane(0)

    @staticmethod
    def reset_lanes(envs, seeds) -> ObservationStack:
        """Start a fresh episode on each lane of `envs`, drawn as `spawn`
        draws from its seed (its config's where the seed is None), straight
        into its row of the state the lanes share; returns their first
        observations. Lanes that do not share one state of their (n, m)
        yet get a fresh one, in the order given. Their constraints are
        those of `build_constraints`: every contribution and every
        capacity is 1."""
        configs = [env.config for env in envs]
        sizes = [(cfg.n, cfg.m) for cfg in configs]
        _one_size(sizes)
        state = envs[0].state
        if (state is None or state.size != sizes[0]
                or any(env.state is not state for env in envs)):
            if len({cfg.max_steps for cfg in configs}) > 1:
                raise RescueError("lanes reset together need one step cap")
            state = GridState.empty(len(envs), *sizes[0])
            for k, env in enumerate(envs):
                env.state, env.lane = state, k
        rows = np.array([env.lane for env in envs])
        state.respawn(rows, [cfg.seed if seed is None else seed
                             for cfg, seed in zip(configs, seeds)])
        agents, tasks = extract_features(state, rows)
        return ObservationStack(agents, tasks, None, _unit_mu(agents, tasks),
                                capacities(state, rows))

    @staticmethod
    def step_lanes(envs, targets) -> tuple:
        """Advance lanes of one shared state (see `reset_lanes`) by one
        `rescue.step`, to their (L, n) targets; returns their next
        observations (ObservationStack), rewards and terminal flags. Their
        constraints are those of `build_constraints`: every contribution
        is 1, and the capacities are `capacities`."""
        state = envs[0].state
        rows = [env.lane for env in envs if env.state is state]
        if len(rows) < len(envs):
            raise RescueError("lanes stepped together share one state: reset them together")
        lanes = None if rows == list(range(len(state.step_count))) else np.array(rows)
        done = rescue_step(state, targets, envs[0].config.max_steps, lanes)
        agents, tasks = extract_features(state, lanes)
        return (ObservationStack(agents, tasks, None, _unit_mu(agents, tasks),
                                 capacities(state, lanes)),
                np.full(len(envs), STEP_REWARD), done)


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
    def reset_lanes(envs, seeds) -> ObservationStack:
        """Reset each lane on its own and stack the results."""
        return stack_resets(envs, seeds)

    @staticmethod
    def step_lanes(envs, targets) -> tuple:
        """Advance each lane on its own and stack the results."""
        return stack_steps([env.step(Assignment(target)) for env, target in zip(envs, targets)])


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

    `steps` and `bootstrap` are read-only views that build fresh objects
    on every read; the update and the training loop read the arrays.
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

    @property
    def bootstrap(self) -> Observation | None:
        if self.bootstrap_at is None:
            return None
        stack, row = self.bootstrap_at
        return stack.lane(row)


class RolloutLanes:
    """Several environments ("lanes") stepped in lockstep; emits chunks.

    Each lane keeps its environment, rng and episode across rounds; all
    lanes hold one (n, m). Their current observations are the rows of one
    ObservationStack, `obs`, and their noise windows the rows of one
    lane-axis NoiseWindows per table kind, `h_noise` and `g_noise`. The
    first round starts every lane's first episode, later rounds the next
    episode of each lane whose last one ended, with one `reset_lanes`
    call of their environment class per round. A round collects one
    chunk from each of the first `count` lanes, in lane order, stepping
    together every lane still inside its chunk. Chunks never cross
    episode boundaries: a 10-step episode with N=4 yields chunks of 4, 4
    and 2 steps, and a lane whose chunk ended early waits for the rest of
    the round.

    The arrays that `reset_lanes` and `step_lanes` return are fresh, and
    the collector keeps them: a step of every lane records `obs` as it is
    and takes the returned stack as the next; a step or a reset of some
    lanes writes theirs back, and a step records a copy of their rows.
    The chunks of a round share `obs` for their bootstrap observations,
    so the next write in place copies it first.
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
        self.obs = None  # every lane's current observation, from the first reset on
        self.shared = False  # whether chunks hold `obs`
        self.in_episode = [False] * len(self.envs)
        self.h_noise = self.g_noise = None  # from the first reset on
        self.size = None  # the (n, m) of every lane, from the first reset on

    def set_model(self, model: ScoringModel):
        """Install an immutable parameter snapshot for upcoming steps."""
        self.model = model.copy()

    def _write(self, lanes, fields):
        """Overwrite the rows `lanes` of `obs` with `fields`."""
        if self.shared:
            self.obs, self.shared = self.obs.rows(np.arange(len(self.envs))), False
        for rows, new in zip(self.obs.fields(), fields):
            if rows is not None:
                rows[lanes] = new

    def _begin_episodes(self, lanes: list):
        """A fresh episode on each lane of `lanes`, from one `reset_lanes`
        call; the first call holds every lane."""
        seeds = [int(self.rngs[k].integers(2 ** 31 - 1)) if self.episode_seeds[k] is None
                 else next(self.episode_seeds[k]) for k in lanes]
        envs = [self.envs[k] for k in lanes]
        obs = type(envs[0]).reset_lanes(envs, seeds)
        size = (obs.agents.shape[1], obs.tasks.shape[1])
        self.size = self.size or size
        if size != self.size:
            raise LearnError(f"lane {lanes[0]} reset to (n, m) = {size}; "
                             f"the collector holds {self.size}")
        if self.obs is None:
            n, m = size
            self.obs = obs
            self.h_noise = NoiseWindows((n, m), self.cfg.p, lanes=len(self.envs))
            if self.uses_g:
                self.g_noise = NoiseWindows((m, m), self.cfg.p, lanes=len(self.envs))
        else:
            index = np.array(lanes)
            self._write(index, obs.fields())
            for noise in (self.h_noise, self.g_noise):
                if noise is not None:
                    noise.reset(index)
        for k in lanes:
            self.in_episode[k] = True

    def _step(self, lanes, steps: StepStack):
        """One lockstep step of `lanes`: one scoring pass, one noise draw
        per table kind, one stacked assignment and one `step_lanes` call,
        recorded in `steps`; returns the row of the first lane, the
        rewards and the terminal flags."""
        every = len(lanes) == len(self.envs)
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
        envs = [self.envs[k] for k in lanes]
        next_obs, rewards, done = type(envs[0]).step_lanes(envs, targets)
        if every:
            self.obs, self.shared = next_obs, False
        else:
            self._write(index, next_obs.fields())
        return steps.add(obs, sampled_h, sampled_g, targets), rewards, done

    def collect_round(self, count: int | None = None) -> list:
        """One chunk from each of the first `count` lanes (all by default)."""
        if self.model is None:
            raise LearnError("set_model() before collecting")
        lanes = range(len(self.envs) if count is None else count)
        starting = [k for k in (range(len(self.envs)) if self.obs is None else lanes)
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
        chunks = []
        for k in lanes:
            tail = ended[k][-1]
            self.in_episode[k] = not tail  # after a terminal step, a fresh episode
            chunks.append(Chunk(steps, rows[k], rewards[k], ended[k],
                                None if tail else (self.obs, k)))
        self.shared = any(self.in_episode[k] for k in lanes)
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
