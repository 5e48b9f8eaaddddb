"""Acceptance gate: the ten primary reproduction and property criteria.

Numeric episode-length targets are statistical reproductions on the
shipped evaluation seed set; exact criteria (inference exactness, FD
gradient checks, simulator identities) are asserted at stated
tolerances. Training-dependent criteria share one module-scoped trained
checkpoint so the suite trains exactly once.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from swarmplan.assign import (
    Assignment,
    ConstraintSet,
    RelaxedAssignment,
    ScoreTable,
    amax_assign,
    fw_line_search,
    fw_linear_oracle,
    get_procedure,
    greedy_round,
    lp_relax_solve,
    objective_value,
    quad_relax_solve,
    round_quad,
)
from swarmplan.battle import (
    build_battle_constraints,
    extract_battle_features,
    frame_record,
    heuristic_policy,
    load_scenario,
    spawn_battle,
    step_battle,
    weakest_closest_no_overkill,
)
from swarmplan.harness import (
    RESCUE_EVAL_SEEDS,
    evaluate_rescue_reference,
)
from swarmplan.learn import (
    A2CConfig,
    NoiseWindows,
    RescueMetaEnv,
    RolloutWorker,
    a2c_grads,
    freeze_targets,
    frozen_objective,
    play_episode,
    train,
)
from swarmplan.nets import (
    CriticParams,
    ScoringModel,
    critic_backward,
    critic_value,
    grads_to_vector,
    init_critic,
    init_scoring_model,
    mlp_backward_batch,
    mlp_forward_batch,
    params_to_vector,
    score_pairs,
    score_pairs_backward,
    vector_to_params,
)
from swarmplan.rescue import RescueConfig
from brute_force import brute_force_assign

# ---------------------------------------------------------------------------
# criteria 1-2: rescue reference reproduction


@pytest.mark.parametrize("n,m,target", [(2, 4, 14.34), (5, 10, 13.61),
                                        (8, 15, 11.8)])
def test_criterion_1_baseline_reproduction(n, m, target):
    summary = evaluate_rescue_reference("closest", n, m, RESCUE_EVAL_SEEDS)
    assert summary.episodes == 1000 and summary.failures == 0
    assert abs(summary.mean - target) <= 0.5, (
        f"baseline {n}x{m}: {summary.mean:.3f} vs {target} +/- 0.5")


@pytest.mark.parametrize("n,m,target", [(2, 4, 10.28), (5, 10, 7.19)])
def test_criterion_2_topline_reproduction(n, m, target):
    summary = evaluate_rescue_reference("topline", n, m, RESCUE_EVAL_SEEDS)
    assert summary.episodes == 1000 and summary.failures == 0
    assert abs(summary.mean - target) <= 0.5, (
        f"topline {n}x{m}: {summary.mean:.3f} vs {target} +/- 0.5")


# ---------------------------------------------------------------------------
# criteria 3-5: inference exactness


def test_criterion_3_lp_rounding_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        scores = ScoreTable(rng.normal(size=(n, m)))
        cons = ConstraintSet(np.ones((n, m)),
                             rng.integers(1, n + 1, size=m).astype(float))
        ours = greedy_round(lp_relax_solve(scores, cons), scores, cons)
        best = brute_force_assign(scores, cons)
        assert objective_value(ours, scores) == pytest.approx(
            objective_value(best, scores), abs=1e-9)


def test_criterion_4_amax_matches_rowwise_argmax():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        h = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        ours = amax_assign(ScoreTable(h))
        expect = [max(range(h.shape[1]), key=lambda j: (h[i, j], -j))
                  for i in range(h.shape[0])]
        assert list(ours.target) == expect


def test_criterion_5_frank_wolfe_properties():
    rng = np.random.default_rng(2)
    # (a) objective non-decreasing along the FW path
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        scores = ScoreTable(rng.normal(size=(n, m)), rng.normal(size=(m, m)))
        cons = ConstraintSet(np.ones((n, m)),
                             rng.integers(1, n + 1, size=m).astype(float))
        beta = np.zeros((n, m))
        g_sym = scores.g + scores.g.T
        last = objective_value(RelaxedAssignment(beta), scores)
        for _ in range(30):
            grad = scores.h + (g_sym @ beta.sum(axis=0))[None, :]
            vertex = fw_linear_oracle(grad, cons)
            gamma = fw_line_search(RelaxedAssignment(beta), vertex, scores)
            beta = beta + gamma * (vertex.beta - beta)
            obj = objective_value(RelaxedAssignment(beta), scores)
            assert obj >= last - 1e-9
            last = obj
    # (b) g == 0 reduces to the LP optimum
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        scores = ScoreTable(rng.normal(size=(n, m)), np.zeros((m, m)))
        cons = ConstraintSet(np.ones((n, m)),
                             rng.integers(1, n + 1, size=m).astype(float))
        fw_obj = objective_value(quad_relax_solve(scores, cons), scores)
        lp_obj = objective_value(
            lp_relax_solve(ScoreTable(scores.h), cons), ScoreTable(scores.h))
        assert abs(fw_obj - lp_obj) <= 1e-6 * (1 + abs(lp_obj))
    # (c) constructed spread / group instances, verified by enumeration
    cons = ConstraintSet(np.ones((2, 2)), [2.0, 2.0])
    for diag in (-1.0, 1.0):
        scores = ScoreTable(np.ones((2, 2)), np.diag([diag, diag]))
        rounded = round_quad(quad_relax_solve(scores, cons), scores, cons)
        best = brute_force_assign(scores, cons)
        assert objective_value(rounded, scores) == pytest.approx(
            objective_value(best, scores), abs=1e-9)
        if diag < 0:
            assert rounded.target[0] != rounded.target[1]  # spread
        else:
            assert rounded.target[0] == rounded.target[1]  # group


# ---------------------------------------------------------------------------
# criterion 6: gradient checks

FD_STEP = 1e-5
NET_TOL = 1e-4
COMPOSITE_TOL = 1e-3


def _coordinate_fd(params, objective, analytic_vec, rng, n_coords=40,
                   tol=NET_TOL):
    vec = params_to_vector(params)
    coords = rng.choice(vec.size, size=min(n_coords, vec.size), replace=False)
    for c in coords:
        plus, minus = vec.copy(), vec.copy()
        plus[c] += FD_STEP
        minus[c] -= FD_STEP
        fd = (objective(vector_to_params(plus, params))
              - objective(vector_to_params(minus, params))) / (2 * FD_STEP)
        scale = max(abs(fd), abs(analytic_vec[c]), 1e-6)
        if abs(fd - analytic_vec[c]) > tol * scale:
            # piecewise-smooth objective: retry across a rectifier kink
            tiny = 1e-7
            plus[c], minus[c] = vec[c] + tiny, vec[c] - tiny
            fd = (objective(vector_to_params(plus, params))
                  - objective(vector_to_params(minus, params))) / (2 * tiny)
            assert abs(fd - analytic_vec[c]) <= 1e-3 * scale, (
                f"coordinate {c}: fd {fd} vs analytic {analytic_vec[c]}")


def test_criterion_6_scoring_net_gradients():
    rng = np.random.default_rng(3)
    model = init_scoring_model(3, 4, pair_extra_dim=2, with_g=True, seed=7)
    A = rng.normal(size=(3, 3))
    T = rng.normal(size=(5, 4))
    E = rng.normal(size=(3, 5, 2))
    dH = rng.normal(size=(3, 5))
    dG = rng.normal(size=(5, 5))
    _, cache = score_pairs(model, A, T, pair_extras=E, with_cache=True)
    h_grads, g_grads = score_pairs_backward(model, cache, dH, dG)

    def h_obj(p):
        m2 = dataclasses.replace(model, h_net=p)
        t = score_pairs(m2, A, T, pair_extras=E)
        return float(np.sum(dH * t.h))

    def g_obj(p):
        m2 = dataclasses.replace(model, g_net=p)
        t = score_pairs(m2, A, T, pair_extras=E)
        return float(np.sum(dG * t.g))

    _coordinate_fd(model.h_net, h_obj, grads_to_vector(h_grads), rng)
    _coordinate_fd(model.g_net, g_obj, grads_to_vector(g_grads), rng)


def test_criterion_6_critic_gradients():
    rng = np.random.default_rng(4)
    critic = init_critic(2, 3, seed=8)
    entities = [(int(rng.integers(0, 2)), rng.normal(size=3))
                for _ in range(6)]
    _, cache = critic_value(critic, entities, with_cache=True)
    embed_grads, head_grads = critic_backward(critic, cache, upstream=1.0)

    def embed_obj(p):
        c2 = dataclasses.replace(critic, embed_net=p)
        return critic_value(c2, entities)

    def head_obj(p):
        c2 = dataclasses.replace(critic, head_net=p)
        return critic_value(c2, entities)

    _coordinate_fd(critic.embed_net, embed_obj, grads_to_vector(embed_grads), rng)
    _coordinate_fd(critic.head_net, head_obj, grads_to_vector(head_grads), rng)


def test_criterion_6_composite_objective_gradient():
    cfg = A2CConfig(n_steps=4, workers=1, batch_chunks=1, sigma=0.5, p=3,
                    gamma=0.9)
    model = init_scoring_model(2, 3, with_g=False, seed=11)
    critic = init_critic(2, 3, seed=12)
    env = RescueMetaEnv(RescueConfig(2, 3, seed=0))
    worker = RolloutWorker(env, "lp", cfg, np.random.default_rng(0))
    worker.set_model(model)
    chunks = [worker.collect_chunk() for _ in range(2)]
    frozen = freeze_targets(model, critic, chunks, cfg)
    grads, _ = a2c_grads(model, critic, chunks, cfg, frozen)
    gvec = np.concatenate([grads_to_vector(grads["h"]),
                           grads_to_vector(grads["embed"]),
                           grads_to_vector(grads["head"])])
    nets = [model.h_net, critic.embed_net, critic.head_net]
    theta = np.concatenate([params_to_vector(p) for p in nets])

    def rebuild(vec):
        k = 0
        parts = []
        for net in nets:
            size = params_to_vector(net).size
            parts.append(vector_to_params(vec[k:k + size], net))
            k += size
        m2 = dataclasses.replace(model, h_net=parts[0])
        c2 = dataclasses.replace(critic, embed_net=parts[1], head_net=parts[2])
        return m2, c2

    rng = np.random.default_rng(13)
    eps = 1e-6
    for _ in range(5):
        d = rng.normal(size=theta.size)
        d /= np.linalg.norm(d)
        mp, cp = rebuild(theta + eps * d)
        mm, cm = rebuild(theta - eps * d)
        fd = (frozen_objective(mp, cp, chunks, cfg, frozen)
              - frozen_objective(mm, cm, chunks, cfg, frozen)) / (2 * eps)
        analytic = float(gvec @ d)
        assert fd == pytest.approx(analytic, rel=COMPOSITE_TOL, abs=1e-8)


# ---------------------------------------------------------------------------
# criterion 7: correlated-noise statistics


@pytest.mark.parametrize("p", [1, 3, 10])
def test_criterion_7_noise_autocovariance(p):
    sigma = 1.3
    width = 10
    steps = 100_000  # 10^6 samples total across the window width
    rng = np.random.default_rng(17)
    win = NoiseWindows((width,), p)
    xs = np.empty((steps, width))
    zero = np.zeros(width)
    for t in range(steps):
        xs[t] = win.sample(zero, sigma, rng)
    xs = xs[p:]
    assert xs.var() == pytest.approx(sigma, rel=0.05)
    for lag in range(1, p):
        autocov = float(np.mean(xs[:-lag] * xs[lag:]))
        expected = (p - lag) * sigma / p
        assert autocov == pytest.approx(expected, rel=0.05), (
            f"p={p} lag={lag}: {autocov} vs {expected}")
    if p < 20:  # beyond the window the autocovariance vanishes
        autocov = float(np.mean(xs[:-p] * xs[p:]))
        assert abs(autocov) < 0.05 * sigma


# ---------------------------------------------------------------------------
# criterion 9: battle simulator properties


def _play_battle(state, policy):
    total = 0.0
    while not state.done:
        reward, _, _ = step_battle(state, policy(state))
        total += reward
    return total


def test_criterion_9_bit_identical_replays():
    for seed in (0, 1):
        def replay():
            st = spawn_battle(load_scenario("m10v10", seed=seed))
            pol = heuristic_policy("wcnok")
            records = [frame_record(st)]
            while not st.done:
                step_battle(st, pol(st))
                records.append(frame_record(st))
            return records
        assert replay() == replay()


def test_criterion_9_telescoped_reward_identity():
    for seed in range(5):
        cfg = load_scenario("m10v10", seed=seed)
        st = spawn_battle(cfg)
        total = _play_battle(st, heuristic_policy("wc"))
        expect = (st.team_health(0) - st.our_health0
                  + sum(sp.max_health for sp in cfg.theirs)
                  - st.team_health(1)) / st.our_health0
        assert total == pytest.approx(expect, abs=1e-12)


def test_criterion_9_wcnok_no_overkill_invariant():
    """Across >= 10^4 (state, target) events: total booked damage minus
    the largest single attacker's damage stays below target health."""
    events = 0
    rng = np.random.default_rng(23)
    seed = 0
    while events < 10_000:
        st = spawn_battle(load_scenario("m15v16", seed=seed))
        seed += 1
        for _ in range(12):
            if st.done:
                break
            out = weakest_closest_no_overkill(st)
            dmg = np.array([u.spec.damage_per_attack for u in st.ours])
            alive = np.array([u.health > 0 for u in st.ours])
            for j, enemy in enumerate(st.theirs):
                mask = (out.target == j) & alive
                if not mask.any():
                    continue
                events += 1
                booked = float(dmg[mask].sum())
                assert booked - dmg[mask].max() < enemy.health + 1e-9
            # advance with random targets to diversify healths
            targets = rng.integers(-1, len(st.theirs), size=len(st.ours))
            step_battle(st, Assignment(targets))
    assert events >= 10_000


def test_criterion_9_quad_inference_latency():
    state = spawn_battle(load_scenario("m80v82", seed=0))
    agents, tasks, extras = extract_battle_features(state)
    cons = build_battle_constraints(state)
    model = init_scoring_model(agents.shape[1], tasks.shape[1],
                               pair_extra_dim=extras.shape[-1], with_g=True,
                               seed=0)
    infer = get_procedure("quad")
    times = []
    for _ in range(5):
        start = time.perf_counter()
        table = score_pairs(model, agents, tasks, pair_extras=extras)
        infer(table, cons)
        times.append(time.perf_counter() - start)
    median_ms = float(np.median(times) * 1000.0)
    assert median_ms <= 600.0, f"quad inference at 80x82: {median_ms:.0f} ms"


# ---------------------------------------------------------------------------
# criteria 8 and 10: desk-scale learning and zero-shot plumbing

TRAIN_A2C = A2CConfig(gamma=0.99, sigma=0.4, p=3, n_steps=4, lam=1.0,
                      lr_policy=1e-3, lr_value=3e-3, optimizer="adam",
                      workers=8, batch_chunks=32)
TRAIN_STAGES = 6           # x TRAIN_STAGE_UPDATES updates each
TRAIN_STAGE_UPDATES = 1000
VALIDATION_SEEDS = range(12000, 12100)
EARLY_STOP_MEAN = 14.2     # comfortably under the 14.64 gate


def _episode_lengths(model, cfg, n, m, seeds):
    rng = np.random.default_rng(99)
    lengths = []
    capped = 0
    rescue_cfg = RescueConfig(n, m, seed=0)
    for seed in seeds:
        env = RescueMetaEnv(rescue_cfg)
        _, steps = play_episode(env, model, "lp", cfg, rng, seed=seed)
        lengths.append(steps - 1)
        capped += not env.state.all_picked
    return np.array(lengths, dtype=float), capped


@pytest.fixture(scope="module")
def trained_rescue():
    """LP-DM trained on rescue 2x4 with validation-based model selection.

    On-policy A2C can collapse late in training, so after each stage the
    model is scored on held-out validation seeds (disjoint from the
    evaluation set) and the best snapshot is kept.
    """
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    critic = init_critic(2, 3, seed=1)
    cfg = TRAIN_A2C
    best_model = model.copy()
    best_mean = math.inf
    for k in range(TRAIN_STAGES):
        train(model, critic,
              lambda: RescueMetaEnv(RescueConfig(2, 4, seed=0)),
              "lp", cfg, total_updates=TRAIN_STAGE_UPDATES, seed=200 + k)
        lengths, _ = _episode_lengths(model, cfg, 2, 4, VALIDATION_SEEDS)
        if lengths.mean() < best_mean:
            best_mean = lengths.mean()
            best_model = model.copy()
        print(f"\nstage {k + 1}: validation mean {lengths.mean():.2f} "
              f"(best {best_mean:.2f})")
        if best_mean <= EARLY_STOP_MEAN:
            break
    return best_model, cfg


def test_criterion_8_desk_scale_learning(trained_rescue):
    model, cfg = trained_rescue
    untrained = init_scoring_model(2, 3, with_g=False, seed=0)
    seeds = RESCUE_EVAL_SEEDS
    trained_lens, _ = _episode_lengths(model, cfg, 2, 4, seeds)
    untrained_lens, _ = _episode_lengths(untrained, cfg, 2, 4, seeds)
    diff = untrained_lens - trained_lens
    t_stat = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
    p_value = 0.5 * math.erfc(t_stat / math.sqrt(2.0))  # one-sided
    print(f"\ntrained {trained_lens.mean():.3f}  untrained "
          f"{untrained_lens.mean():.3f}  t={t_stat:.1f}  p={p_value:.2e}")
    assert trained_lens.mean() < untrained_lens.mean()
    assert p_value < 0.01
    assert trained_lens.mean() <= 14.34 + 0.3


def test_criterion_10_zero_shot_plumbing(trained_rescue):
    model, cfg = trained_rescue
    for n, m in ((5, 10), (8, 15)):
        lengths, capped = _episode_lengths(model, cfg, n, m, RESCUE_EVAL_SEEDS)
        completion = 1.0 - capped / lengths.size
        print(f"\nzero-shot {n}x{m}: mean {lengths.mean():.2f}, "
              f"completion {completion:.3f}")
        assert completion >= 0.99, f"{n}x{m} completion {completion:.3f}"
