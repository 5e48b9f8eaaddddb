"""Tests for the correlated-noise A2C learner.

The analytic update gradient is checked against finite differences of
the frozen objective (returns and advantages held at the evaluation
point), and the batched update against a per-step loop; noise statistics
are checked against the closed forms for a moving sum of p innovations.
"""
import csv
import importlib
import re
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from swarmplan.assign import Assignment, ConstraintSet, ScoreTable, get_procedure
from swarmplan.learn import (
    METRIC_FIELDS,
    A2CConfig,
    AdamOptimizer,
    BattleMetaEnv,
    FrozenTargets,
    LearnError,
    NoiseWindows,
    Observation,
    ObservationStack,
    OPTIMIZERS,
    RescueLanes,
    RescueMetaEnv,
    RolloutLanes,
    RolloutWorker,
    SgdOptimizer,
    a2c_grads,
    a2c_update,
    evaluate_policy,
    freeze_targets,
    make_optimizer,
    play_episode,
    train,
    write_metrics,
)
from swarmplan.nets import (
    CriticParams,
    MlpParams,
    ScoringModel,
    critic_backward,
    critic_rows,
    critic_value,
    grads_to_vector,
    init_critic,
    init_scoring_model,
    params_to_vector,
    score_pairs,
    score_pairs_backward,
    zero_grads,
)
from swarmplan.rescue import RescueConfig, build_constraints, extract_features, spawn
from a2c_reference import add_grads, bootstrap, frozen_objective, gaussian_loglik, vector_to_params

# ---------------------------------------------------------------------------
# noise


@pytest.mark.parametrize("p", [1, 3, 10])
def test_innovation_noise_stationary_variance_and_autocov(p):
    sigma = 0.7
    rng = np.random.default_rng(0)
    win = NoiseWindows((1,), p)
    steps = 200_000
    xs = np.empty(steps)
    for t in range(steps):
        xs[t] = win.sample(np.zeros(1), sigma, rng)[0]
    xs = xs[p:]  # burn in the zero-initialized window
    var = xs.var()
    assert var == pytest.approx(sigma, rel=0.05)
    for lag in range(1, p + 1):
        expected = (p - lag) * sigma / p
        autocov = np.mean(xs[:-lag] * xs[lag:])
        if expected == 0.0:
            assert abs(autocov) < 0.05 * sigma
        else:
            assert autocov == pytest.approx(expected, rel=0.05)


def test_noise_reset_clears_window():
    """After `reset`, a window samples as a fresh one does."""
    win = NoiseWindows((2, 2), 3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        win.sample(np.zeros((2, 2)), 1.0, rng)
    win.reset()
    fresh = NoiseWindows((2, 2), 3)
    means = np.arange(4.0).reshape(2, 2)
    for seed in range(3):
        got = win.sample(means, 1.0, np.random.default_rng(seed))
        want = fresh.sample(means, 1.0, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


class DequeWindow:
    """One table's noise window as a deque of its last p innovations,
    summed oldest to newest: the reference for the stacked windows."""

    def __init__(self, shape, p):
        self.shape, self.p = tuple(shape), p
        self.queue = deque([np.zeros(self.shape) for _ in range(p)], maxlen=p)

    def sample(self, means, sigma, rng):
        innovation = rng.normal(0.0, np.sqrt(sigma / self.p), self.shape)
        self.queue.append(innovation)
        return means + (innovation if self.p == 1 else sum(self.queue))


@pytest.mark.parametrize("p", [1, 3, 10])
@pytest.mark.parametrize("kind", ["nm", "mm"])
@pytest.mark.parametrize("sigma", [0.4, 0.0])
def test_lane_windows_equal_per_lane_deques(p, kind, sigma):
    """A lane-axis NoiseWindows gives, bit for bit, what one deque window
    per lane gives: over random subsets of sampled lanes, with some lanes
    reset mid-run, each lane drawing from its own rng."""
    lanes, (n, m) = 5, (3, 4)
    shape = (n, m) if kind == "nm" else (m, m)
    stacked = NoiseWindows(shape, p, lanes=lanes)
    refs = [DequeWindow(shape, p) for _ in range(lanes)]
    rngs = [np.random.default_rng(100 + k) for k in range(lanes)]
    ref_rngs = [np.random.default_rng(100 + k) for k in range(lanes)]
    pick = np.random.default_rng(p)
    for t in range(40):
        if t % 7 == 6:
            reset = np.flatnonzero(pick.random(lanes) < 0.4)
            stacked.reset(reset)
            for k in reset.tolist():
                refs[k] = DequeWindow(shape, p)
        every = t % 4 == 0
        chosen = np.arange(lanes) if every else np.flatnonzero(pick.random(lanes) < 0.6)
        if not chosen.size:
            continue
        means = pick.normal(size=(len(chosen),) + shape)
        got = stacked.sample(means, sigma, [rngs[k] for k in chosen.tolist()],
                             None if every else chosen)
        want = np.array([refs[k].sample(mean, sigma, ref_rngs[k])
                         for k, mean in zip(chosen.tolist(), means)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_noise_sigma_zero_returns_means_exactly():
    rng = np.random.default_rng(2)
    win = NoiseWindows((3,), 4)
    means = np.array([1.0, -2.0, 0.5])
    for _ in range(10):
        assert np.array_equal(win.sample(means, 0.0, rng), means)


def test_noise_rejects_bad_args():
    with pytest.raises(ValueError):
        NoiseWindows((1,), 0)
    win = NoiseWindows((2,), 2)
    with pytest.raises(ValueError):
        win.sample(np.zeros(3), 1.0, np.random.default_rng(0))
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            win.sample(np.zeros(2), sigma, np.random.default_rng(0))


@pytest.mark.parametrize("name", ["p", "n_steps", "workers", "batch_chunks"])
@pytest.mark.parametrize("value", [2.5, 4.0, True, "3"])
def test_config_rejects_non_integer_counts(name, value):
    """`n_steps=2.5` would collect 3-step chunks and `p=2.5` or
    `workers=2.5` fail in the rollout; a bool is no count."""
    with pytest.raises(LearnError, match=f"{name} must be an integer"):
        A2CConfig(**{name: value})
    assert getattr(A2CConfig(**{name: np.int64(3)}), name) == 3


# ---------------------------------------------------------------------------
# helpers: a deterministic fixed-length meta-environment


class FixedEnv:
    """Episode of exactly `length` steps with constant reward 1."""

    num_kinds = 2
    feature_dim = 3

    def __init__(self, length=10, n=2, m=3):
        self.length = length
        self.n, self.m = n, m
        self.t = 0

    def _observe(self):
        rng = np.random.default_rng(self.t)
        agents = rng.normal(size=(self.n, 2))
        tasks = rng.normal(size=(self.m, 3))
        cons = ConstraintSet(np.ones((self.n, self.m)), np.ones(self.m))
        return Observation(agents, tasks, None, cons)

    def reset(self, seed=None):
        self.t = 0
        return self._observe()

    def step(self, assignment):
        self.t += 1
        return self._observe(), 1.0, self.t >= self.length


def entities(obs):
    """The (kind, features) entity list of an observation, for `critic_value`."""
    return [(0, row) for row in obs.agent_feats] + [(1, row) for row in obs.task_feats]


def small_cfg(**kw):
    base = dict(n_steps=4, workers=1, batch_chunks=2, p=3, sigma=0.5,
                gamma=0.9, lr_policy=1e-2, lr_value=1e-2)
    base.update(kw)
    return A2CConfig(**base)


def make_worker(env=None, inference="lp", cfg=None, seed=0, with_g=None):
    env = env or FixedEnv()
    cfg = cfg or small_cfg()
    model = init_scoring_model(2, 3, with_g=(inference == "quad") if with_g is None
                               else with_g, seed=seed)
    worker = RolloutWorker(env, inference, cfg, np.random.default_rng(seed))
    worker.set_model(model)
    return worker, model


# ---------------------------------------------------------------------------
# rollout


def test_chunks_never_cross_episodes():
    worker, _ = make_worker(FixedEnv(length=10))
    lens, tails = [], []
    for _ in range(3):
        chunk = worker.collect_chunk()
        lens.append(len(chunk))
        tails.append(chunk.terminal_tail)
    assert lens == [4, 4, 2]
    assert tails == [False, False, True]
    assert worker.collect_chunk().steps[0].obs is not None  # fresh episode


def test_terminal_chunk_has_no_bootstrap():
    worker, _ = make_worker(FixedEnv(length=4))
    chunk = worker.collect_chunk()
    assert chunk.terminal_tail and bootstrap(chunk) is None
    worker2, _ = make_worker(FixedEnv(length=9))
    chunk2 = worker2.collect_chunk()
    assert not chunk2.terminal_tail and bootstrap(chunk2) is not None


def test_rollout_assignments_replay_from_sampled_tables():
    for inference in ("amax", "lp"):
        worker, _ = make_worker(FixedEnv(length=6), inference=inference,
                                seed=11)
        infer = get_procedure(inference)
        chunk = worker.collect_chunk()
        for step in chunk.steps:
            redo = infer(ScoreTable(step.sampled_h, step.sampled_g),
                         step.obs.cons)
            assert np.array_equal(redo.target, step.assignment.target)


def test_rollout_quad_samples_g_tables():
    worker, model = make_worker(FixedEnv(length=4), inference="quad", seed=5)
    chunk = worker.collect_chunk()
    for step in chunk.steps:
        assert step.sampled_g is not None and step.sampled_g.shape == (3, 3)


def test_gaussian_loglik_matches_closed_form():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3))
    mu = rng.normal(size=(2, 3))
    var = 0.3
    expected = sum(
        -0.5 * np.log(2 * np.pi * var) - (xi - mi) ** 2 / (2 * var)
        for xi, mi in zip(x.ravel(), mu.ravel())
    )
    assert gaussian_loglik(x, mu, var) == pytest.approx(expected)


def test_rescue_meta_env_round_trip():
    env = RescueMetaEnv(RescueConfig(2, 3, seed=0))
    obs = env.reset(seed=42)
    assert env.config.seed == 0  # the episode seed does not replace the config's
    assert obs.agent_feats.shape == (2, 2) and obs.task_feats.shape == (3, 3)
    assert obs.cons.mu.shape == (2, 3)
    pool = RescueLanes([env])  # the pool of a one-lane collector
    assert env.state is pool.state
    first = pool.reset(np.array([0]), [42])
    for got, want in ((first.agents[0], obs.agent_feats), (first.tasks[0], obs.task_feats),
                      (first.mu[0], obs.cons.mu), (first.u[0], obs.cons.u)):
        assert got.tobytes() == want.tobytes()
    obs2, rewards, done = pool.step(None, np.array([[0, 1]]))
    assert obs2.agents.shape == (1, 2, 2) and obs2.u.shape == (1, 3)
    assert rewards.tolist() == [pytest.approx(-0.01)] and done.tolist() == [False]


def _spawned_lane(cfg, seed):
    """What `reset` gave before lanes shared a state: the spawned lane,
    its features and its ConstraintSet."""
    state = spawn(replace(cfg, seed=seed))
    return state, extract_features(state), build_constraints(state)


def test_rescue_reset_lanes_equal_spawn_and_leave_other_rows():
    """`RescueLanes.reset` writes each lane's row k of the pool's state
    and returns its observation exactly as `spawn`, `extract_features`
    and `build_constraints` give them, over 200 seeds, and leaves the
    rows of lanes in mid-episode as they were."""
    cfg = RescueConfig(3, 5, seed=0)
    envs = [RescueMetaEnv(cfg) for _ in range(4)]
    pool = RescueLanes(envs)
    state = pool.state
    assert all(env.state is state for env in envs)
    seeds = iter(range(200))
    pick = np.random.default_rng(9)
    chosen = list(range(len(envs)))
    while True:
        lane_seeds = [next(seeds, None) for _ in chosen]
        if None in lane_seeds:
            break
        kept = {name: getattr(state, name).copy()
                for name in ("ambulances", "victims", "picked", "step_count", "victim_ids")}
        obs = pool.reset(np.array(chosen), lane_seeds)
        for i, (k, seed) in enumerate(zip(chosen, lane_seeds)):
            single, (agents, tasks), cons = _spawned_lane(cfg, seed)
            for name in ("ambulances", "victims", "picked", "step_count", "victim_ids"):
                assert np.array_equal(getattr(state, name)[k], getattr(single, name)[0])
            for got, want in ((obs.agents[i], agents[0]), (obs.tasks[i], tasks[0]),
                              (obs.mu[i], cons.mu), (obs.u[i], cons.u)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for k in set(range(len(envs))) - set(chosen):
            for name, before in kept.items():
                assert np.array_equal(getattr(state, name)[k], before[k])
        for _ in range(3):  # put every lane in mid-episode
            pool.step(None, pick.integers(-1, cfg.m, size=(len(envs), cfg.n)))
        chosen = sorted(pick.choice(len(envs), size=pick.integers(1, 4), replace=False).tolist())


def test_rescue_collector_of_other_sizes_or_step_caps_raises_when_built():
    """The rescue lanes of a collector hold one (n, m) and one step cap:
    environments that differ in either raise LearnError when the
    collector is built; ones that differ only in their seed do not."""
    rngs = [np.random.default_rng(k) for k in range(2)]
    for other in (RescueConfig(3, 4), RescueConfig(2, 5), RescueConfig(2, 4, max_steps=60)):
        with pytest.raises(LearnError, match="lane 1 holds"):
            RolloutLanes([RescueMetaEnv(RescueConfig(2, 4)), RescueMetaEnv(other)], "lp",
                         small_cfg(), rngs)
    RolloutLanes([RescueMetaEnv(RescueConfig(2, 4, seed=k)) for k in range(2)], "lp",
                 small_cfg(), rngs)


def test_battle_collector_resets_by_stacking_per_lane_resets(monkeypatch):
    """A battle collector starts its lanes' episodes through `StackingLanes`:
    one `reset` per lane, with the seed that lane's rng draws, and the
    first observation of each chunk is that reset's, bit for bit."""
    from swarmplan.battle import load_scenario
    make = lambda: BattleMetaEnv(load_scenario("m5v5", seed=0))
    resets = []
    reset = BattleMetaEnv.reset

    def counting(self, seed=None):
        resets.append(seed)
        return reset(self, seed)
    monkeypatch.setattr(BattleMetaEnv, "reset", counting)
    obs = make().reset(seed=0)
    model = init_scoring_model(obs.agent_feats.shape[1], obs.task_feats.shape[1],
                               pair_extra_dim=obs.pair_extras.shape[-1], with_g=False, seed=3)
    resets.clear()
    lanes = RolloutLanes([make() for _ in range(3)], "lp", small_cfg(),
                         [np.random.default_rng(70 + k) for k in range(3)])
    lanes.set_model(model)
    chunks = lanes.collect_round()
    want_seeds = [int(np.random.default_rng(70 + k).integers(2 ** 31 - 1)) for k in range(3)]
    assert resets == want_seeds
    for chunk, seed in zip(chunks, want_seeds):
        first, want = chunk.steps[0].obs, reset(make(), seed)
        for name in ("agent_feats", "task_feats", "pair_extras"):
            assert getattr(first, name).tobytes() == getattr(want, name).tobytes()
        for name in ("mu", "u"):
            assert getattr(first.cons, name).tobytes() == getattr(want.cons, name).tobytes()


def test_battle_meta_env_round_trip():
    from swarmplan.battle import BattleConfig, load_scenario
    cfg = load_scenario("m5v5", seed=0)
    env = BattleMetaEnv(cfg)
    obs = env.reset(seed=1)
    assert obs.agent_feats.shape == (5, env.feature_dim)
    assert obs.pair_extras.shape == (5, 5, 2)
    obs2, reward, done = env.step(Assignment(np.zeros(5, dtype=int)))
    assert np.isfinite(reward)
    assert env.config.seed == 0


def _chunk_fields(chunk):
    return ([step.assignment.target.tolist() for step in chunk.steps],
            [step.terminal for step in chunk.steps], chunk.terminal_tail)


def _assert_same_chunks(got, want):
    assert [_chunk_fields(c) for c in got] == [_chunk_fields(c) for c in want]
    for a, b in zip(got, want):
        for x, y in zip(a.steps, b.steps):
            np.testing.assert_allclose(x.sampled_h, y.sampled_h, rtol=0, atol=1e-12)
            if y.sampled_g is not None:
                np.testing.assert_allclose(x.sampled_g, y.sampled_g, rtol=0, atol=1e-12)


def test_lockstep_train_keeps_round_robin_chunk_order(monkeypatch):
    """`train` with W lanes hands the updater the chunks that W one-lane
    workers give when visited one after another, round-robin: a batch of 8
    chunks from 3 lanes ends with a short round of 2, and lanes with
    episodes of 5, 7 and 9 steps end their chunks at different steps."""
    cfg = small_cfg(workers=3, batch_chunks=8)
    lengths = iter([5, 7, 9, 5, 7, 9])
    make = lambda: FixedEnv(length=next(lengths))
    train_module = importlib.import_module("swarmplan.learn.train")
    update = train_module.a2c_update
    seen = []  # (parameter snapshot, batch) per update

    def recording_update(model, critic, chunks, *args):
        seen.append((model.copy(), chunks))
        return update(model, critic, chunks, *args)

    monkeypatch.setattr(train_module, "a2c_update", recording_update)
    seed = 13
    train(init_scoring_model(2, 3, with_g=False, seed=0), init_critic(2, 3, seed=1),
          make, "lp", cfg, total_updates=3, seed=seed)
    workers = [RolloutWorker(make(), "lp", cfg, np.random.default_rng(seed + 7919 * (k + 1)))
               for k in range(cfg.workers)]
    for snapshot, chunks in seen:
        for worker in workers:
            worker.set_model(snapshot)
        _assert_same_chunks(chunks, [workers[t % cfg.workers].collect_chunk()
                                     for t in range(cfg.batch_chunks)])
    assert {len(chunk) for _, chunks in seen for chunk in chunks} == {1, 3, 4}
    # no stored array is a view into a buffer that a later step reuses
    arrays = [a for _, chunks in seen for chunk in chunks for step in chunk.steps
              for a in (step.obs.agent_feats, step.obs.task_feats, step.sampled_h)]
    for i, a in enumerate(arrays):
        assert not any(np.may_share_memory(a, b) for b in arrays[i + 1:])


def _lanes_match_workers(makes, inference, model, rounds=2):
    """RolloutLanes over the envs made by `makes` give, round by round, the
    chunks of one-lane workers on the same envs and rngs."""
    cfg = small_cfg(sigma=0.4)
    lanes = RolloutLanes([make() for make in makes], inference, cfg,
                         [np.random.default_rng(60 + k) for k in range(len(makes))])
    workers = [RolloutWorker(make(), inference, cfg, np.random.default_rng(60 + k))
               for k, make in enumerate(makes)]
    lanes.set_model(model)
    for worker in workers:
        worker.set_model(model)
    for _ in range(rounds):
        got = lanes.collect_round()
        _assert_same_chunks(got, [worker.collect_chunk() for worker in workers])
    return got


def test_quad_lanes_on_battle_match_one_lane_workers():
    from swarmplan.battle import load_scenario
    make = lambda: BattleMetaEnv(load_scenario("m5v5", seed=0))
    obs = make().reset(seed=0)
    model = init_scoring_model(obs.agent_feats.shape[1], obs.task_feats.shape[1],
                               pair_extra_dim=obs.pair_extras.shape[-1], with_g=True,
                               seed=3)
    got = _lanes_match_workers([make] * 3, "quad", model)
    assert all(step.sampled_g is not None for chunk in got for step in chunk.steps)


def test_lanes_of_different_sizes_raise():
    """A collector holds one (n, m): lanes of another size, or a lane that
    resets to another size, raise LearnError."""
    model = init_scoring_model(2, 3, with_g=False, seed=3)
    lanes = RolloutLanes([FixedEnv(m=3), FixedEnv(m=4)],
                         "lp", small_cfg(), [np.random.default_rng(k) for k in range(2)])
    lanes.set_model(model)
    with pytest.raises(LearnError, match="lane 1 reset to"):
        lanes.collect_round()
    worker, _ = make_worker(FixedEnv(length=3))
    assert worker.collect_chunk().terminal_tail
    worker.pool.envs[0].m = 4  # the next episode is 2x4
    with pytest.raises(LearnError, match="lane 0 reset to"):
        worker.collect_chunk()


def test_rescue_training_builds_no_per_step_objects(monkeypatch):
    """A rescue training run records its steps as arrays: it builds no
    StepRecord and no Observation, and starts episodes with one pool
    `reset` per round that has lanes to start."""
    import swarmplan.learn.rollout as rollout
    built = {"StepRecord": 0, "Observation": 0, "resets": 0, "lanes": 0}
    for name in ("StepRecord", "Observation"):
        init = getattr(rollout, name).__init__

        def counting(self, *args, _init=init, _name=name, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(getattr(rollout, name), "__init__", counting)
    reset = RescueLanes.reset

    def counting_reset(self, rows, seeds):
        built["resets"] += 1
        built["lanes"] += len(rows)
        return reset(self, rows, seeds)
    monkeypatch.setattr(RescueLanes, "reset", counting_reset)
    cfg = small_cfg(workers=4, batch_chunks=8)
    result = train(init_scoring_model(2, 3, with_g=False, seed=0), init_critic(2, 3, seed=1),
                   lambda: RescueMetaEnv(RescueConfig(2, 4, seed=0)), "lp",
                   cfg, total_updates=3, seed=2)
    assert result.env_steps > 3 * 8
    assert built["StepRecord"] == built["Observation"] == 0
    rounds = 3 * cfg.batch_chunks // cfg.workers
    assert 0 < built["resets"] <= rounds
    assert cfg.workers <= built["lanes"] < result.env_steps


@pytest.mark.parametrize("inference", ["lp", "quad"])
def test_gathered_rows_equal_chunk_steps_and_bootstraps(inference):
    """The update gathers its batch rows from the rounds' stacked arrays:
    they equal bit for bit the fields of every chunk's `steps`, in batch
    order, and then of the non-terminal chunks' `bootstrap` states."""
    import swarmplan.learn.update as update
    cfg = small_cfg(workers=3, batch_chunks=7)
    lanes = RolloutLanes([FixedEnv(length=k) for k in (5, 7, 9)], inference, cfg,
                         [np.random.default_rng(50 + k) for k in range(3)])
    lanes.set_model(init_scoring_model(2, 3, with_g=inference == "quad", seed=4))
    chunks = lanes.collect_round() + lanes.collect_round() + lanes.collect_round(1)
    assert {chunk.terminal_tail for chunk in chunks} == {True, False}
    rows = update._gather(chunks)
    steps = [step for chunk in chunks for step in chunk.steps]
    states = [step.obs for step in steps] + [
        bootstrap(chunk) for chunk in chunks if not chunk.terminal_tail]
    want = {"agents": [obs.agent_feats for obs in states],
            "tasks": [obs.task_feats for obs in states],
            "sampled_h": [step.sampled_h for step in steps],
            "sampled_g": [step.sampled_g for step in steps] if inference == "quad" else None}
    assert rows.extras is None
    for name, arrays in want.items():
        got = getattr(rows, name)
        if arrays is None:
            assert got is None
        else:
            want_rows = np.stack(arrays)
            assert got.shape == want_rows.shape and got.tobytes() == want_rows.tobytes()


# ---------------------------------------------------------------------------
# critic rows


def reference_entity_matrix(critic, entity_lists):
    """Critic input rows of several (kind, features) entity lists, one entity
    at a time, as the update built them before it read the feature arrays."""
    counts = np.array([len(entities) for entities in entity_lists], dtype=int)
    X = np.zeros((int(counts.sum()), critic.num_kinds + critic.feature_dim))
    row = 0
    for entities in entity_lists:
        for kind, feats in entities:
            feats = np.asarray(feats, dtype=float)
            X[row, kind] = 1.0
            X[row, critic.num_kinds:critic.num_kinds + feats.shape[0]] = feats
            row += 1
    return X, counts


def _battle_chunks():
    from swarmplan.battle import load_scenario
    env = BattleMetaEnv(load_scenario("m5v5", seed=0))
    obs = env.reset(seed=0)
    model = init_scoring_model(obs.agent_feats.shape[1], obs.task_feats.shape[1],
                               pair_extra_dim=obs.pair_extras.shape[-1], with_g=False,
                               seed=3)
    worker = RolloutWorker(env, "lp", small_cfg(), np.random.default_rng(5))
    worker.set_model(model)
    chunks = [worker.collect_chunk() for _ in range(3)]
    return chunks, init_critic(BattleMetaEnv.num_kinds, env.feature_dim, seed=6)


CRITIC_BATCHES = {
    "rescue-2x4": lambda: (_rescue_batch([(2, 4)] * 3)[2], None),
    "rescue-8x15": lambda: (_rescue_batch([(8, 15)])[2], None),
    "battle-m5v5": _battle_chunks,
}


@pytest.mark.parametrize("case", sorted(CRITIC_BATCHES))
def test_critic_rows_equal_entity_rows(case):
    """The update's critic rows, one `critic_rows` call on the stacked
    feature arrays of a batch's states (bootstrap states included), equal
    the entity-by-entity rows bit for bit."""
    chunks, critic = CRITIC_BATCHES[case]()
    critic = critic or init_critic(RescueMetaEnv.num_kinds, RescueMetaEnv.feature_dim, seed=2)
    observations = [step.obs for chunk in chunks for step in chunk.steps] + [
        bootstrap(chunk) for chunk in chunks if not chunk.terminal_tail]
    X = critic_rows(critic, np.stack([obs.agent_feats for obs in observations]),
                    np.stack([obs.task_feats for obs in observations]))
    want_X, _ = reference_entity_matrix(critic, [entities(obs) for obs in observations])
    assert X.shape == want_X.shape and np.array_equal(X, want_X)


# ---------------------------------------------------------------------------
# update


def collect_batch(inference="lp", length=6, chunks=2, seed=0, cfg=None):
    cfg = cfg or small_cfg()
    worker, model = make_worker(FixedEnv(length=length), inference=inference,
                                cfg=cfg, seed=seed)
    critic = init_critic(FixedEnv.num_kinds, FixedEnv.feature_dim, seed=seed + 1)
    batch = [worker.collect_chunk() for _ in range(chunks)]
    return model, critic, batch, cfg


def test_zero_advantage_gives_zero_policy_gradient():
    model, critic, batch, cfg = collect_batch()
    frozen = freeze_targets(model, critic, batch, cfg)
    frozen = FrozenTargets(frozen.returns,
                           [[0.0] * len(a) for a in frozen.advantages])
    grads, _ = a2c_grads(model, critic, batch, cfg, frozen)
    assert np.all(grads_to_vector(grads["h"]) == 0.0)
    # the critic still learns: value gradients are not all zero
    assert np.any(grads_to_vector(grads["embed"]) != 0.0)


def test_no_g_model_has_no_g_gradients():
    model, critic, batch, cfg = collect_batch(inference="lp")
    grads, _ = a2c_grads(model, critic, batch, cfg)
    assert grads["g"] is None


def _pack(model, critic):
    parts = [params_to_vector(model.h_net)]
    if model.g_net is not None:
        parts.append(params_to_vector(model.g_net))
    parts += [params_to_vector(critic.embed_net),
              params_to_vector(critic.head_net)]
    return np.concatenate(parts)


def _unpack(vec, model, critic):
    k = 0
    nets = [model.h_net] + ([model.g_net] if model.g_net is not None else []) \
        + [critic.embed_net, critic.head_net]
    rebuilt = []
    for net in nets:
        size = params_to_vector(net).size
        rebuilt.append(vector_to_params(vec[k:k + size], net))
        k += size
    if model.g_net is not None:
        h_net, g_net, embed, head = rebuilt
    else:
        h_net, embed, head = rebuilt
        g_net = None
    model2 = ScoringModel(h_net, g_net, model.feature_dim_agent,
                          model.feature_dim_task, model.pair_extra_dim)
    critic2 = CriticParams(embed, head, critic.num_kinds, critic.feature_dim)
    return model2, critic2


def _grad_vector(grads, model):
    parts = [grads_to_vector(grads["h"])]
    if model.g_net is not None:
        parts.append(grads_to_vector(grads["g"]))
    parts += [grads_to_vector(grads["embed"]), grads_to_vector(grads["head"])]
    return np.concatenate(parts)


@pytest.mark.parametrize("inference", ["lp", "quad"])
def test_composite_gradient_matches_finite_differences(inference):
    model, critic, batch, cfg = collect_batch(inference=inference, length=5,
                                              chunks=1, seed=9)
    frozen = freeze_targets(model, critic, batch, cfg)
    grads, _ = a2c_grads(model, critic, batch, cfg, frozen)
    gvec = _grad_vector(grads, model)
    theta = _pack(model, critic)
    rng = np.random.default_rng(123)
    eps = 1e-6
    for _ in range(5):
        d = rng.normal(size=theta.size)
        d /= np.linalg.norm(d)
        mp, cp = _unpack(theta + eps * d, model, critic)
        mm, cm = _unpack(theta - eps * d, model, critic)
        fd = (frozen_objective(mp, cp, batch, cfg, frozen)
              - frozen_objective(mm, cm, batch, cfg, frozen)) / (2 * eps)
        analytic = float(gvec @ d)
        assert fd == pytest.approx(analytic, rel=1e-3, abs=1e-8)


def test_a2c_update_moves_parameters_and_reports_finite_diagnostics():
    model, critic, batch, cfg = collect_batch()
    before = _pack(model, critic)
    diag = a2c_update(model, critic, batch, cfg,
                      make_optimizer("sgd", cfg.lr_policy),
                      make_optimizer("sgd", cfg.lr_value))
    assert not diag.skipped
    assert np.isfinite(diag.value_loss) and np.isfinite(diag.policy_loss)
    assert not np.array_equal(before, _pack(model, critic))


def test_update_descends_frozen_objective():
    model, critic, batch, cfg = collect_batch(seed=21)
    frozen = freeze_targets(model, critic, batch, cfg)
    before = frozen_objective(model, critic, batch, cfg, frozen)
    a2c_update(model, critic, batch, cfg,
               make_optimizer("sgd", 1e-3), make_optimizer("sgd", 1e-3))
    after = frozen_objective(model, critic, batch, cfg, frozen)
    assert after < before


# ---------------------------------------------------------------------------
# the batched update against a per-step loop


def brute_returns(rewards, terminal_tail, tail_value, gamma):
    N = len(rewards)
    out = []
    for t in range(N):
        r = sum(gamma ** (k - t) * rewards[k] for k in range(t, N))
        if not terminal_tail:
            r += gamma ** (N - t) * tail_value
        out.append(r)
    return out


def reference_targets(model, critic, chunks, cfg):
    """R and A step by step: the returns summed term by term, one
    critic_value per step and per bootstrap state."""
    returns, advantages = [], []
    for chunk in chunks:
        tail = 0.0 if chunk.terminal_tail else critic_value(critic, entities(bootstrap(chunk)))
        R = brute_returns(chunk.rewards, chunk.terminal_tail, tail, cfg.gamma)
        returns.append(R)
        advantages.append([r - critic_value(critic, entities(step.obs))
                           for r, step in zip(R, chunk.steps)])
    return FrozenTargets(returns, advantages)


def reference_grads(model, critic, chunks, cfg, frozen):
    """Gradients of the batch loss with one forward and backward per step."""
    acc = {"h": zero_grads(model.h_net),
           "g": zero_grads(model.g_net) if model.g_net is not None else None,
           "embed": zero_grads(critic.embed_net),
           "head": zero_grads(critic.head_net)}
    value_loss = policy_loss = 0.0
    count = 0
    for chunk, R, A in zip(chunks, frozen.returns, frozen.advantages):
        for step, r, a in zip(chunk.steps, R, A):
            v, v_cache = critic_value(critic, entities(step.obs), with_cache=True)
            eg, hg = critic_backward(critic, v_cache, upstream=-np.sign(r - v))
            add_grads(acc["embed"], eg)
            add_grads(acc["head"], hg)
            table, cache = score_pairs(model, step.obs.agent_feats,
                                       step.obs.task_feats,
                                       pair_extras=step.obs.pair_extras,
                                       with_cache=True)
            log_l = gaussian_loglik(step.sampled_h, table.h, cfg.sigma)
            scale = -cfg.lam * a / cfg.sigma
            dG = None
            if step.sampled_g is not None:
                log_l += gaussian_loglik(step.sampled_g, table.g, cfg.sigma)
                dG = scale * (step.sampled_g - table.g)
            h_grads, g_grads = score_pairs_backward(
                model, cache, scale * (step.sampled_h - table.h), dG)
            add_grads(acc["h"], h_grads)
            if g_grads is not None:
                add_grads(acc["g"], g_grads)
            value_loss += abs(r - v)
            policy_loss += -cfg.lam * a * log_l
            count += 1
    grads = {name: None if g is None else [(gW / count, gb / count) for gW, gb in g]
             for name, g in acc.items()}
    return grads, (value_loss / count, policy_loss / count)


def _rescue_batch(sizes, with_g=False, inference="lp"):
    cfg = small_cfg()
    model = init_scoring_model(2, 3, with_g=with_g, seed=31)
    critic = init_critic(RescueMetaEnv.num_kinds, RescueMetaEnv.feature_dim, seed=32)
    chunks = []
    for k, (n, m) in enumerate(sizes):
        env = RescueMetaEnv(RescueConfig(n, m, seed=0))
        worker = RolloutWorker(env, inference, cfg, np.random.default_rng(40 + k))
        worker.set_model(model)
        chunks += [worker.collect_chunk() for _ in range(2)]
    return model, critic, chunks, cfg


BATCHES = {
    "rescue-lp": lambda: _rescue_batch([(2, 4), (2, 4)]),
    "quad-with-g": lambda: collect_batch(inference="quad", length=10, chunks=3,
                                         seed=33),
    "terminal-and-bootstrap": lambda: collect_batch(length=6, chunks=4, seed=34),
}


def _assert_grads_close(got, want):
    assert (got["g"] is None) == (want["g"] is None)
    for name in ("h", "g", "embed", "head"):
        if want[name] is None:
            continue
        a, b = grads_to_vector(got[name]), grads_to_vector(want[name])
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), name


@pytest.mark.parametrize("case", sorted(BATCHES))
def test_batched_update_matches_per_step_loop(case):
    model, critic, chunks, cfg = BATCHES[case]()
    tails = {chunk.terminal_tail for chunk in chunks}
    if case == "terminal-and-bootstrap":
        assert tails == {True, False}
    if case == "quad-with-g":
        assert all(step.sampled_g is not None for chunk in chunks
                   for step in chunk.steps)

    want_targets = reference_targets(model, critic, chunks, cfg)
    got_targets = freeze_targets(model, critic, chunks, cfg)
    for got, want in zip(
            (got_targets.returns, got_targets.advantages),
            (want_targets.returns, want_targets.advantages)):
        assert [len(x) for x in got] == [len(x) for x in want]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)

    # on-line targets (frozen=None) against the per-step loop
    want_grads, (value_loss, policy_loss) = reference_grads(
        model, critic, chunks, cfg, want_targets)
    grads, diag = a2c_grads(model, critic, chunks, cfg)
    _assert_grads_close(grads, want_grads)
    assert diag.value_loss == pytest.approx(value_loss, rel=1e-12)
    assert diag.policy_loss == pytest.approx(policy_loss, rel=1e-12)
    assert diag.steps == sum(len(chunk) for chunk in chunks)

    # explicit targets, with advantages away from the on-line ones, are
    # used as given
    rng = np.random.default_rng(35)
    frozen = FrozenTargets(want_targets.returns,
                           [list(np.multiply(A, rng.uniform(0.5, 1.5, len(A))))
                            for A in want_targets.advantages])
    want_grads, _ = reference_grads(model, critic, chunks, cfg, frozen)
    grads, _ = a2c_grads(model, critic, chunks, cfg, frozen)
    _assert_grads_close(grads, want_grads)


def _mixed_g_batch():
    """Chunks of one size, some sampled with g (quad) and some without (lp)."""
    model, critic, chunks, cfg = collect_batch(inference="quad", seed=36)
    worker = RolloutWorker(FixedEnv(), "lp", cfg, np.random.default_rng(37))
    worker.set_model(model)
    return model, critic, chunks + [worker.collect_chunk()], cfg


MIXED_BATCHES = {
    "sizes-2x4-3x5": lambda: _rescue_batch([(2, 4), (3, 5)]),
    "bootstrap-of-another-size": lambda: _rescue_batch([(2, 4)]),
    "g-sampled-by-some-steps": _mixed_g_batch,
}


@pytest.mark.parametrize("entry", ["freeze_targets", "a2c_grads"])
@pytest.mark.parametrize("case", sorted(MIXED_BATCHES))
def test_batch_of_mixed_shapes_raises(case, entry):
    """A batch holds one (n, m), and its steps all sampled g or none did."""
    model, critic, chunks, cfg = MIXED_BATCHES[case]()
    if case == "bootstrap-of-another-size":
        chunk = next(chunk for chunk in chunks if not chunk.terminal_tail)
        chunk.bootstrap_at = (ObservationStack.of([Observation(
            np.zeros((3, 2)), np.zeros((5, 3)), None, ConstraintSet(np.ones((3, 5)), np.ones(5)))]), 0)
    says = "sampled g" if case.startswith("g-") else r"one \(n, m\)"
    with pytest.raises(LearnError, match=says):
        {"freeze_targets": freeze_targets, "a2c_grads": a2c_grads}[entry](
            model, critic, chunks, cfg)


def test_non_terminal_chunk_without_bootstrap_raises():
    """`a2c_update` rejects a chunk that neither ends its episode nor
    holds its bootstrap observation, before any parameter moves."""
    model, critic, batch, cfg = collect_batch(chunks=1)
    assert not batch[0].terminal_tail
    batch[0].bootstrap_at = None
    before = _pack(model, critic).tobytes()
    with pytest.raises(LearnError, match="non-terminal chunk without a bootstrap observation"):
        a2c_update(model, critic, batch, cfg,
                   make_optimizer("sgd", 1.0), make_optimizer("sgd", 1.0))
    assert _pack(model, critic).tobytes() == before


def test_a2c_grads_rejects_mismatched_targets():
    model, critic, batch, cfg = collect_batch()
    frozen = freeze_targets(model, critic, batch, cfg)
    short = FrozenTargets(frozen.returns[:1], frozen.advantages[:1])
    with pytest.raises(LearnError):
        a2c_grads(model, critic, batch, cfg, short)


class NanRewardEnv(FixedEnv):
    """FixedEnv whose first episode pays a NaN reward on step `nan_at`."""

    def __init__(self, length=10, nan_at=2):
        super().__init__(length)
        self.nan_at = nan_at
        self.episodes = 0

    def reset(self, seed=None):
        self.episodes += 1
        return super().reset(seed)

    def step(self, assignment):
        obs, reward, done = super().step(assignment)
        if self.episodes == 1 and self.t == self.nan_at:
            reward = float("nan")
        return obs, reward, done


def test_non_finite_update_is_skipped_and_recorded(tmp_path):
    cfg = small_cfg(optimizer="adam")
    worker, model = make_worker(NanRewardEnv(), cfg=cfg)
    critic = init_critic(2, 3, seed=1)
    batch = [worker.collect_chunk() for _ in range(cfg.batch_chunks)]
    before = _pack(model, critic).tobytes()
    diag = a2c_update(model, critic, batch, cfg,
                      make_optimizer(cfg.optimizer, cfg.lr_policy),
                      make_optimizer(cfg.optimizer, cfg.lr_value))
    assert diag.skipped
    assert not np.isfinite(diag.grad_norm)
    assert _pack(model, critic).tobytes() == before

    # in `train` the first update meets the NaN, the second does not
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    critic = init_critic(2, 3, seed=1)
    path = tmp_path / "metrics.csv"
    train(model, critic, NanRewardEnv, "lp", cfg, total_updates=2,
          metrics_path=path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["skipped"] for row in rows] == ["1", "0"]
    assert np.isfinite(float(rows[1]["grad_norm"]))


# ---------------------------------------------------------------------------
# optimizers


def _toy_net():
    return MlpParams([(np.array([[1.0, 2.0]]), np.array([0.5]))])


def test_sgd_step_is_plain_descent():
    net = _toy_net()
    grads = [(np.array([[0.1, -0.2]]), np.array([0.3]))]
    SgdOptimizer(0.5).step([net], [grads])
    assert np.allclose(net.layers[0][0], [[0.95, 2.1]])
    assert np.allclose(net.layers[0][1], [0.35])


def test_adam_first_step_is_lr_times_sign():
    net = _toy_net()
    grads = [(np.array([[0.1, -0.2]]), np.array([0.3]))]
    opt = AdamOptimizer(0.01)
    opt.step([net], [grads])
    # after bias correction the first Adam step is lr * g / (|g| + eps)
    assert np.allclose(net.layers[0][0], [[1.0 - 0.01, 2.0 + 0.01]], atol=1e-6)
    assert np.allclose(net.layers[0][1], [0.5 - 0.01], atol=1e-6)


class PerArrayAdam:
    """Adam updating each (W, b) array with its own moments: the reference
    for the flat optimizer."""

    def __init__(self, lr):
        self.lr, self.t, self.moments = lr, 0, None

    def step(self, params_list, grads_list):
        if self.moments is None:
            self.moments = [[(np.zeros_like(gW), np.zeros_like(gb), np.zeros_like(gW),
                              np.zeros_like(gb)) for gW, gb in grads] for grads in grads_list]
        self.t += 1
        b1, b2, eps = AdamOptimizer.BETA1, AdamOptimizer.BETA2, AdamOptimizer.EPS
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for params, grads, moms in zip(params_list, grads_list, self.moments):
            for (W, b), (gW, gb), (mW, mb, vW, vb) in zip(params.layers, grads, moms):
                for arr, g, m, v in ((W, gW, mW, vW), (b, gb, mb, vb)):
                    m *= b1
                    m += (1.0 - b1) * g
                    v *= b2
                    v += (1.0 - b2) * g * g
                    arr -= self.lr * (m / c1) / (np.sqrt(v / c2) + eps)


class PerArraySgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params_list, grads_list):
        for params, grads in zip(params_list, grads_list):
            for (W, b), (gW, gb) in zip(params.layers, grads):
                W -= self.lr * gW
                b -= self.lr * gb


def _six_nets():
    """The policy nets (h and g of a rescue and of a battle model) and the
    value nets (embed and head of a critic)."""
    rescue_model = init_scoring_model(2, 3, with_g=True, seed=1)
    battle_model = init_scoring_model(6, 6, pair_extra_dim=2, with_g=True, seed=2)
    critic = init_critic(2, 3, seed=3)
    return [[rescue_model.h_net, rescue_model.g_net, battle_model.h_net, battle_model.g_net],
            [critic.embed_net, critic.head_net]]


@pytest.mark.parametrize("name", ["adam", "sgd"])
def test_flat_optimizers_equal_per_array_reference(name):
    """The optimizers' one pass over a flat vector updates every array of
    six nets bit for bit as the per-array loop does, over 50 steps."""
    flat_groups, ref_groups = _six_nets(), _six_nets()
    make = {"adam": (AdamOptimizer, PerArrayAdam), "sgd": (SgdOptimizer, PerArraySgd)}[name]
    flat_opts = [make[0](lr) for lr in (1e-2, 3e-3)]
    ref_opts = [make[1](lr) for lr in (1e-2, 3e-3)]
    rng = np.random.default_rng(4)
    for _ in range(50):
        for flat_nets, ref_nets, flat_opt, ref_opt in zip(flat_groups, ref_groups,
                                                          flat_opts, ref_opts):
            grads = [[(rng.normal(size=W.shape), rng.normal(size=b.shape))
                      for W, b in net.layers] for net in flat_nets]
            flat_opt.step(flat_nets, grads)
            ref_opt.step(ref_nets, grads)
    for flat_nets, ref_nets in zip(flat_groups, ref_groups):
        for flat_net, ref_net in zip(flat_nets, ref_nets):
            assert params_to_vector(flat_net).tobytes() == params_to_vector(ref_net).tobytes()


def test_a2c_config_rejects_unknown_optimizer():
    """The optimizer name is checked once, by `A2CConfig`; `make_optimizer`
    builds each name it accepts."""
    with pytest.raises(LearnError, match="optimizer must be one of"):
        A2CConfig(optimizer="rmsprop")
    assert [type(make_optimizer(name, 1e-3)) for name in OPTIMIZERS] == [
        SgdOptimizer, AdamOptimizer]


# ---------------------------------------------------------------------------
# training loop


def test_zero_budget_leaves_parameters_untouched():
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    critic = init_critic(2, 3, seed=1)
    before = _pack(model, critic)
    result = train(model, critic, FixedEnv, "lp", small_cfg(), total_updates=0)
    assert result.updates == 0 and result.env_steps == 0
    assert np.array_equal(before, _pack(model, critic))


def test_train_writes_metrics_csv(tmp_path):
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    critic = init_critic(2, 3, seed=1)
    path = tmp_path / "metrics.csv"
    result = train(model, critic, FixedEnv, "lp", small_cfg(),
                   total_updates=3, eval_every=2, eval_seeds=(10_000, 10_001),
                   metrics_path=path)
    assert result.updates == 3
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert set(rows[0]) == {"wall_clock", "env_steps", "updates",
                            "eval_mean_return", "eval_mean_length",
                            "value_loss", "policy_loss", "grad_norm",
                            "skipped"}
    # evaluation ran on updates 2 (periodic) and 3 (final)
    assert rows[0]["eval_mean_return"] == ""
    assert rows[1]["eval_mean_return"] != ""
    assert rows[2]["eval_mean_return"] != ""
    assert float(rows[2]["env_steps"]) > float(rows[0]["env_steps"])


def test_readme_lists_the_metric_columns_in_order():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    sentence = re.search(r"The metrics CSV has one row per update.*?\.\s", readme,
                         re.S)
    assert sentence is not None
    assert tuple(re.findall(r"`(\w+)`", sentence.group())) == METRIC_FIELDS


def test_play_episode_counts_fixed_env():
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    ret, length = play_episode(FixedEnv(length=7), model, "lp", small_cfg(),
                               np.random.default_rng(0))
    assert length == 7 and ret == pytest.approx(7.0)


def test_evaluate_policy_is_deterministic_given_seeds():
    model = init_scoring_model(2, 3, with_g=False, seed=4)
    cfg = small_cfg()
    make = lambda: RescueMetaEnv(RescueConfig(2, 2, seed=0, max_steps=60))
    a = evaluate_policy(make, model, "lp", cfg, seeds=(500, 501, 502))
    b = evaluate_policy(make, model, "lp", cfg, seeds=(500, 501, 502))
    assert len(a) == 3 and all(env.state.all_picked for env, _, _ in a)
    assert [(ret, length) for _, ret, length in a] == [(ret, length) for _, ret, length in b]


def test_training_improves_fixed_env_value_estimate():
    """A few updates should shrink the critic's value error on-policy."""
    cfg = small_cfg(batch_chunks=4, lr_value=5e-3, lr_policy=0.0)
    model, critic, batch, _ = collect_batch(cfg=cfg)
    first = a2c_grads(model, critic, batch, cfg)[1].value_loss
    result = train(model, critic, lambda: FixedEnv(), "lp", cfg,
                   total_updates=30, seed=1)
    last = result.metrics[-1]["value_loss"]
    assert last < first
