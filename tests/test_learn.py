"""Tests for the correlated-noise A2C learner.

The analytic update gradient is checked against finite differences of
the frozen objective (returns, advantages and importance ratios held at
the evaluation point), and the batched update against a per-step loop;
noise statistics are checked against the closed forms for a moving sum
of p innovations.
"""
import csv

import numpy as np
import pytest

from swarmplan.assign import Assignment, ConstraintSet, ScoreTable, get_procedure
from swarmplan.learn import (
    A2CConfig,
    AdamOptimizer,
    BattleMetaEnv,
    Chunk,
    FrozenTargets,
    LearnError,
    NoiseWindows,
    Observation,
    RescueMetaEnv,
    RolloutWorker,
    SgdOptimizer,
    StepRecord,
    a2c_grads,
    a2c_update,
    effective_workers,
    evaluate_policy,
    freeze_targets,
    frozen_objective,
    gaussian_loglik,
    make_optimizer,
    nstep_returns,
    play_episode,
    train,
    worker_rollout,
    write_metrics,
)
from swarmplan.nets import (
    CriticParams,
    MlpParams,
    ScoringModel,
    add_grads,
    critic_backward,
    critic_value,
    grads_to_vector,
    init_critic,
    init_scoring_model,
    params_to_vector,
    score_pairs,
    score_pairs_backward,
    vector_to_params,
    zero_grads,
)
from swarmplan.rescue import RescueConfig

# ---------------------------------------------------------------------------
# noise


@pytest.mark.parametrize("p", [1, 3, 10])
def test_innovation_noise_stationary_variance_and_autocov(p):
    sigma = 0.7
    rng = np.random.default_rng(0)
    win = NoiseWindows((1,), p, "innovation")
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
    rng = np.random.default_rng(1)
    win = NoiseWindows((2, 2), 3, "innovation")
    for _ in range(5):
        win.sample(np.zeros((2, 2)), 1.0, rng)
    win.reset()
    assert all(np.all(arr == 0.0) for arr in win.queue)


def test_noise_sigma_zero_returns_means_exactly():
    rng = np.random.default_rng(2)
    win = NoiseWindows((3,), 4, "innovation")
    means = np.array([1.0, -2.0, 0.5])
    for _ in range(10):
        assert np.array_equal(win.sample(means, 0.0, rng), means)


def test_noise_rejects_bad_args():
    with pytest.raises(ValueError):
        NoiseWindows((1,), 0)
    for mode in ("bogus", "residual"):
        with pytest.raises(ValueError):
            NoiseWindows((1,), 2, mode)
        with pytest.raises(LearnError):
            A2CConfig(noise_mode=mode)
    win = NoiseWindows((2,), 2)
    with pytest.raises(ValueError):
        win.sample(np.zeros(3), 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        win.sample(np.zeros(2), -1.0, np.random.default_rng(0))


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
        entities = [(0, row) for row in agents] + [(1, row) for row in tasks]
        cons = ConstraintSet(np.ones((self.n, self.m)), np.ones(self.m))
        return Observation(agents, tasks, None, cons, entities)

    def reset(self, seed=None):
        self.t = 0
        return self._observe()

    def step(self, assignment):
        self.t += 1
        return self._observe(), 1.0, self.t >= self.length


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
    assert chunk.terminal_tail and chunk.bootstrap_entities is None
    worker2, _ = make_worker(FixedEnv(length=9))
    chunk2 = worker2.collect_chunk()
    assert not chunk2.terminal_tail and chunk2.bootstrap_entities is not None


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


def test_rollout_log_likelihood_matches_sampled_tables():
    worker, model = make_worker(FixedEnv(length=5), seed=3)
    cfg = worker.cfg
    chunk = worker.collect_chunk()
    for step in chunk.steps:
        assert step.log_l_old == pytest.approx(
            gaussian_loglik(step.sampled_h, step.h, cfg.sigma))


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
    assert obs.agent_feats.shape == (2, 2) and obs.task_feats.shape == (3, 3)
    assert len(obs.entities) == 5
    obs2, reward, done = env.step(Assignment(np.array([0, 1])))
    assert reward == pytest.approx(-0.01) and not done


def test_battle_meta_env_round_trip():
    from swarmplan.battle import BattleConfig, load_scenario
    cfg = load_scenario("m5v5", seed=0)
    env = BattleMetaEnv(cfg)
    obs = env.reset(seed=1)
    assert obs.agent_feats.shape == (5, env.feature_dim)
    assert obs.pair_extras.shape == (5, 5, 2)
    obs2, reward, done = env.step(Assignment(np.zeros(5, dtype=int)))
    assert np.isfinite(reward)


# ---------------------------------------------------------------------------
# returns


def brute_returns(rewards, terminal_tail, tail_value, gamma):
    N = len(rewards)
    out = []
    for t in range(N):
        r = sum(gamma ** (k - t) * rewards[k] for k in range(t, N))
        if not terminal_tail:
            r += gamma ** (N - t) * tail_value
        out.append(r)
    return out


def _stub_chunk(rewards, terminal_tail, entities):
    steps = []
    for t, r in enumerate(rewards):
        obs = Observation(np.zeros((1, 1)), np.zeros((1, 1)), None,
                          ConstraintSet(np.ones((1, 1)), np.ones(1)),
                          entities)
        steps.append(StepRecord(obs, np.zeros((1, 1)), None,
                                np.zeros((1, 1)), None,
                                Assignment(np.array([0])), 0.0, r,
                                terminal_tail and t == len(rewards) - 1))
    return Chunk(steps, None if terminal_tail else entities, terminal_tail)


@pytest.mark.parametrize("terminal", [True, False])
def test_nstep_returns_match_brute_force(terminal):
    critic = init_critic(2, 3, seed=0)
    entities = [(0, [0.1, 0.2]), (1, [0.3, -0.1, 0.5])]
    rewards = [1.0, -0.5, 2.0, 0.25]
    chunk = _stub_chunk(rewards, terminal, entities)
    got = nstep_returns(chunk, 0.9, critic)
    tail = 0.0 if terminal else critic_value(critic, entities)
    expected = brute_returns(rewards, terminal, tail, 0.9)
    assert got == pytest.approx(expected)


def test_nstep_returns_rejects_missing_bootstrap():
    critic = init_critic(2, 3, seed=0)
    chunk = _stub_chunk([1.0], False, [(0, [0.0, 0.0])])
    chunk.bootstrap_entities = None
    with pytest.raises(LearnError):
        nstep_returns(chunk, 0.9, critic)


# ---------------------------------------------------------------------------
# update


def collect_batch(inference="lp", length=6, chunks=2, seed=0, cfg=None):
    cfg = cfg or small_cfg()
    worker, model = make_worker(FixedEnv(length=length), inference=inference,
                                cfg=cfg, seed=seed)
    critic = init_critic(FixedEnv.num_kinds, FixedEnv.feature_dim, seed=seed + 1)
    batch = [worker.collect_chunk() for _ in range(chunks)]
    return model, critic, batch, cfg


def test_on_policy_importance_ratios_are_one():
    model, critic, batch, cfg = collect_batch()
    frozen = freeze_targets(model, critic, batch, cfg)
    for chunk_ratios in frozen.ratios:
        assert chunk_ratios == pytest.approx([1.0] * len(chunk_ratios), abs=1e-9)


def test_zero_advantage_gives_zero_policy_gradient():
    model, critic, batch, cfg = collect_batch()
    frozen = freeze_targets(model, critic, batch, cfg)
    frozen = FrozenTargets(frozen.returns,
                           [[0.0] * len(a) for a in frozen.advantages],
                           frozen.ratios)
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
    assert diag.mean_ir == pytest.approx(1.0, abs=1e-9)
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


def reference_targets(model, critic, chunks, cfg):
    """R, A and ir step by step: one score_pairs and one critic_value each."""
    returns, advantages, ratios = [], [], []
    for chunk in chunks:
        R = nstep_returns(chunk, cfg.gamma, critic)
        A, ir = [], []
        for r, step in zip(R, chunk.steps):
            A.append(r - critic_value(critic, step.obs.entities))
            table = score_pairs(model, step.obs.agent_feats, step.obs.task_feats,
                                pair_extras=step.obs.pair_extras)
            log_l = gaussian_loglik(step.sampled_h, table.h, cfg.sigma)
            if step.sampled_g is not None:
                log_l += gaussian_loglik(step.sampled_g, table.g, cfg.sigma)
            ir.append(float(np.exp(np.clip(log_l - step.log_l_old, -20.0, 20.0))))
        returns.append(R)
        advantages.append(A)
        ratios.append(ir)
    return FrozenTargets(returns, advantages, ratios)


def reference_grads(model, critic, chunks, cfg, frozen):
    """Gradients of the batch loss with one forward and backward per step."""
    acc = {"h": zero_grads(model.h_net),
           "g": zero_grads(model.g_net) if model.g_net is not None else None,
           "embed": zero_grads(critic.embed_net),
           "head": zero_grads(critic.head_net)}
    value_loss = policy_loss = ir_sum = 0.0
    count = 0
    for chunk, R, A, ir in zip(chunks, frozen.returns, frozen.advantages,
                               frozen.ratios):
        for step, r, a, w in zip(chunk.steps, R, A, ir):
            v, v_cache = critic_value(critic, step.obs.entities, with_cache=True)
            eg, hg = critic_backward(critic, v_cache, upstream=-np.sign(r - v))
            add_grads(acc["embed"], eg)
            add_grads(acc["head"], hg)
            table, cache = score_pairs(model, step.obs.agent_feats,
                                       step.obs.task_feats,
                                       pair_extras=step.obs.pair_extras,
                                       with_cache=True)
            log_l = gaussian_loglik(step.sampled_h, table.h, cfg.sigma)
            scale = -cfg.lam * w * a / cfg.sigma
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
            policy_loss += -cfg.lam * w * a * log_l
            ir_sum += w
            count += 1
    grads = {name: None if g is None else [(gW / count, gb / count) for gW, gb in g]
             for name, g in acc.items()}
    return grads, (value_loss / count, policy_loss / count, ir_sum / count)


def _rescue_batch(sizes, with_g=False, inference="lp"):
    cfg = small_cfg()
    model = init_scoring_model(2, 3, with_g=with_g, seed=31)
    critic = init_critic(RescueMetaEnv.num_kinds, RescueMetaEnv.feature_dim, seed=32)
    chunks = []
    for k, (n, m) in enumerate(sizes):
        env = RescueMetaEnv(RescueConfig(n, m, seed=0))
        chunks += worker_rollout(env, model, inference, cfg,
                                 np.random.default_rng(40 + k), num_chunks=2)
    return model, critic, chunks, cfg


BATCHES = {
    "rescue-lp": lambda: _rescue_batch([(2, 4), (2, 4)]),
    "quad-with-g": lambda: collect_batch(inference="quad", length=10, chunks=3,
                                         seed=33),
    "mixed-2x4-3x5": lambda: _rescue_batch([(2, 4), (3, 5)]),
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
    if case == "mixed-2x4-3x5":
        assert {step.h.shape for chunk in chunks for step in chunk.steps} \
            == {(2, 4), (3, 5)}
    if case == "quad-with-g":
        assert all(step.sampled_g is not None for chunk in chunks
                   for step in chunk.steps)

    want_targets = reference_targets(model, critic, chunks, cfg)
    got_targets = freeze_targets(model, critic, chunks, cfg)
    for got, want in zip(
            (got_targets.returns, got_targets.advantages, got_targets.ratios),
            (want_targets.returns, want_targets.advantages, want_targets.ratios)):
        assert [len(x) for x in got] == [len(x) for x in want]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)

    # on-line targets (frozen=None) against the per-step loop
    want_grads, (value_loss, policy_loss, mean_ir) = reference_grads(
        model, critic, chunks, cfg, want_targets)
    grads, diag = a2c_grads(model, critic, chunks, cfg)
    _assert_grads_close(grads, want_grads)
    assert diag.value_loss == pytest.approx(value_loss, rel=1e-12)
    assert diag.policy_loss == pytest.approx(policy_loss, rel=1e-12)
    assert diag.mean_ir == pytest.approx(mean_ir, rel=1e-12)
    assert diag.steps == sum(len(chunk) for chunk in chunks)

    # explicit targets, with ratios away from 1, are used as given
    rng = np.random.default_rng(35)
    frozen = FrozenTargets(want_targets.returns, want_targets.advantages,
                           [list(rng.uniform(0.5, 1.5, len(ir)))
                            for ir in want_targets.ratios])
    want_grads, _ = reference_grads(model, critic, chunks, cfg, frozen)
    grads, _ = a2c_grads(model, critic, chunks, cfg, frozen)
    _assert_grads_close(grads, want_grads)


def test_a2c_grads_rejects_mismatched_targets():
    model, critic, batch, cfg = collect_batch()
    frozen = freeze_targets(model, critic, batch, cfg)
    short = FrozenTargets(frozen.returns[:1], frozen.advantages[:1],
                          frozen.ratios[:1])
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


def test_make_optimizer_rejects_unknown():
    with pytest.raises(LearnError):
        make_optimizer("rmsprop", 1e-3)


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
                   total_updates=3, eval_every=2, eval_episodes=2,
                   metrics_path=path)
    assert result.updates == 3
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert set(rows[0]) == {"wall_clock", "env_steps", "updates",
                            "eval_mean_return", "eval_mean_length",
                            "value_loss", "policy_loss", "mean_ir",
                            "grad_norm", "skipped"}
    # evaluation ran on updates 2 (periodic) and 3 (final)
    assert rows[0]["eval_mean_return"] == ""
    assert rows[1]["eval_mean_return"] != ""
    assert rows[2]["eval_mean_return"] != ""
    assert float(rows[2]["env_steps"]) > float(rows[0]["env_steps"])


def test_play_episode_counts_fixed_env():
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    ret, length = play_episode(FixedEnv(length=7), model, "lp", small_cfg(),
                               np.random.default_rng(0))
    assert length == 7 and ret == pytest.approx(7.0)


def test_evaluate_policy_is_deterministic_given_seeds():
    model = init_scoring_model(2, 3, with_g=False, seed=4)
    cfg = small_cfg()
    make = lambda: RescueMetaEnv(RescueConfig(2, 2, seed=0, max_steps=60))
    a = evaluate_policy(make, model, "lp", cfg, episodes=3, seed_base=500)
    b = evaluate_policy(make, model, "lp", cfg, episodes=3, seed_base=500)
    assert a == b


def test_effective_workers_respects_env_cap(monkeypatch):
    monkeypatch.delenv("SWARMPLAN_THREADS", raising=False)
    assert effective_workers(8) == 8
    monkeypatch.setenv("SWARMPLAN_THREADS", "2")
    assert effective_workers(8) == 2
    monkeypatch.setenv("SWARMPLAN_THREADS", "0")
    with pytest.raises(LearnError):
        effective_workers(8)


def test_training_improves_fixed_env_value_estimate():
    """A few updates should shrink the critic's value error on-policy."""
    cfg = small_cfg(batch_chunks=4, lr_value=5e-3, lr_policy=0.0)
    model, critic, batch, _ = collect_batch(cfg=cfg)
    first = a2c_grads(model, critic, batch, cfg)[1].value_loss
    result = train(model, critic, lambda: FixedEnv(), "lp", cfg,
                   total_updates=30, seed=1)
    last = result.metrics[-1]["value_loss"]
    assert last < first
