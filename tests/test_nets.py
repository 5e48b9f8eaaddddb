"""Tests for the scoring networks, critic, and checkpoint container.

Gradient correctness is established against central finite differences
on randomly sampled parameter coordinates; analytic gradients must match
to a relative error of 1e-4.
"""
import numpy as np
import pytest

from swarmplan.assign import AssignError
from swarmplan.battle import extract_battle_features, load_scenario, spawn_battle
from swarmplan.nets import (
    CheckpointError,
    CriticParams,
    MlpParams,
    NetError,
    ScoringModel,
    critic_backward,
    critic_rows,
    critic_value,
    critic_values,
    critic_values_backward,
    grads_to_vector,
    init_critic,
    init_mlp,
    init_scoring_model,
    load_arrays,
    load_models,
    mlp_backward_batch,
    mlp_forward_batch,
    params_to_vector,
    save_arrays,
    save_models,
    score_pair_stack,
    score_pairs,
    score_pairs_backward,
    vector_to_params,
)

FD_STEP = 1e-5
REL_TOL = 1e-4


def mlp_forward(params, x):
    """One input through `mlp_forward_batch`: (scalar-or-vector, cache)."""
    y, cache = mlp_forward_batch(params, np.asarray(x, dtype=float)[None, :])
    return (float(y[0, 0]) if y.shape[1] == 1 else y[0]), cache


def mlp_backward(params, cache, upstream):
    """`mlp_backward_batch` for the cache of one input: (grads, dx)."""
    grads, dX = mlp_backward_batch(params, cache,
                                   np.atleast_1d(np.asarray(upstream, dtype=float))[None, :])
    return grads, dX[0]


def fd_check(params, objective, analytic_vec, rng, n_coords=60):
    """Central-difference check of d objective / d params on random coords.

    objective(MlpParams) -> float. Coordinates whose pre-activations sit
    within FD_STEP of a rectifier kink are skipped rather than compared.
    """
    vec = params_to_vector(params)
    coords = rng.choice(vec.size, size=min(n_coords, vec.size), replace=False)
    checked = 0
    for c in coords:
        plus = vec.copy()
        plus[c] += FD_STEP
        minus = vec.copy()
        minus[c] -= FD_STEP
        fd = (objective(vector_to_params(plus, params))
              - objective(vector_to_params(minus, params))) / (2 * FD_STEP)
        scale = max(abs(fd), abs(analytic_vec[c]), 1e-6)
        if abs(fd - analytic_vec[c]) > REL_TOL * scale:
            # Tolerate coordinates that straddle a rectifier kink: the
            # objective is piecewise smooth, so shrink the step and retry.
            tiny = 1e-7
            plus[c] = vec[c] + tiny
            minus[c] = vec[c] - tiny
            fd = (objective(vector_to_params(plus, params))
                  - objective(vector_to_params(minus, params))) / (2 * tiny)
            assert abs(fd - analytic_vec[c]) <= 1e-3 * max(abs(fd), abs(analytic_vec[c]), 1e-6), (
                f"coord {c}: fd {fd} vs analytic {analytic_vec[c]}"
            )
        checked += 1
    assert checked > 0


class TestMlpForward:
    def test_linear_net_matches_matrix_product(self):
        # Single layer => pure affine map, checkable by hand.
        W = np.array([[1.0, 2.0], [-3.0, 0.5]])
        b = np.array([0.25, -1.0])
        params = MlpParams([(W, b)])
        x = np.array([2.0, -1.0])
        y, _ = mlp_forward(params, x)
        np.testing.assert_allclose(y, W @ x + b)

    def test_relu_clamps_hidden_layer(self):
        W1 = np.array([[1.0], [-1.0]])
        b1 = np.zeros(2)
        W2 = np.array([[1.0, 1.0]])
        b2 = np.zeros(1)
        params = MlpParams([(W1, b1), (W2, b2)])
        # x=3: hidden = relu([3, -3]) = [3, 0] -> out 3
        y, _ = mlp_forward(params, np.array([3.0]))
        assert y == 3.0
        y, _ = mlp_forward(params, np.array([-2.0]))
        assert y == 2.0

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(1)
        params = init_mlp([4, 32, 32, 1], rng)
        X = rng.normal(size=(7, 4))
        Y, _ = mlp_forward_batch(params, X)
        # Batched and single-row matmuls may sum in different orders, so
        # agreement is to rounding, not bitwise.
        for i in range(7):
            yi, _ = mlp_forward(params, X[i])
            assert abs(Y[i, 0] - yi) <= 1e-12 * max(1.0, abs(yi))

    def test_buffered_pass_equals_cached_pass(self):
        # with_cache=False writes its hidden layers into reused buffers;
        # 6,560 rows is the h_net batch of an m80v82 decision, and the
        # last 64 rows run in buffers grown for it
        rng = np.random.default_rng(2)
        params = init_mlp([20, 32, 32, 1], rng)
        for rows in (1, 64, 6560, 64):
            X = rng.normal(size=(rows, 20))
            buffered, cache = mlp_forward_batch(params, X, with_cache=False)
            cached, _ = mlp_forward_batch(params, X, with_cache=True)
            assert cache is None and buffered.shape == (rows, 1)
            assert buffered.tobytes() == cached.tobytes()

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(0)
        params = init_mlp([3, 8, 1], rng)
        with pytest.raises(NetError):
            mlp_forward_batch(params, np.zeros((2, 4)))

    def test_param_validation(self):
        with pytest.raises(NetError):
            MlpParams([(np.zeros((2, 3)), np.zeros(3))])  # bias dim mismatch
        with pytest.raises(NetError):
            MlpParams([(np.zeros((2, 3)), np.zeros(2)),
                       (np.zeros((1, 3)), np.zeros(1))])  # chain mismatch


class TestInit:
    def test_reproducible(self):
        a = init_mlp([5, 32, 1], np.random.default_rng(9))
        b = init_mlp([5, 32, 1], np.random.default_rng(9))
        for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_glorot_bounds_and_variance(self):
        rng = np.random.default_rng(3)
        fan_in, fan_out = 40, 60
        params = init_mlp([fan_in, fan_out], rng)
        W, b = params.layers[0]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(W) <= a)
        # Uniform(-a, a) variance is a^2/3 = 2/(fan_in+fan_out).
        expect = 2.0 / (fan_in + fan_out)
        assert abs(W.var() - expect) < 0.15 * expect
        np.testing.assert_array_equal(b, np.zeros(fan_out))


class TestMlpGradients:
    def test_fd_scalar_output(self):
        rng = np.random.default_rng(7)
        params = init_mlp([5, 32, 32, 1], rng)
        x = rng.normal(size=5)

        y, cache = mlp_forward(params, x)
        grads, _ = mlp_backward(params, cache, 1.0)

        def objective(p):
            out, _ = mlp_forward(p, x)
            return out

        fd_check(params, objective, grads_to_vector(grads), rng)

    def test_fd_batch_weighted_sum(self):
        rng = np.random.default_rng(11)
        params = init_mlp([3, 32, 32, 1], rng)
        X = rng.normal(size=(6, 3))
        dY = rng.normal(size=(6, 1))

        _, cache = mlp_forward_batch(params, X)
        grads, _ = mlp_backward_batch(params, cache, dY)

        def objective(p):
            out, _ = mlp_forward_batch(p, X)
            return float((dY * out).sum())

        fd_check(params, objective, grads_to_vector(grads), rng)

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        params = init_mlp([4, 32, 1], rng)
        x = rng.normal(size=4)
        _, cache = mlp_forward(params, x)
        _, dx = mlp_backward(params, cache, 1.0)
        for c in range(4):
            xp, xm = x.copy(), x.copy()
            xp[c] += FD_STEP
            xm[c] -= FD_STEP
            fd = (mlp_forward(params, xp)[0] - mlp_forward(params, xm)[0]) / (2 * FD_STEP)
            assert abs(fd - dx[c]) <= REL_TOL * max(abs(fd), abs(dx[c]), 1e-6)

    def test_relu_subgradient_zero_at_kink(self):
        # pre-activation exactly 0 must pass no gradient.
        W1 = np.array([[1.0]])
        b1 = np.array([0.0])
        W2 = np.array([[2.0]])
        b2 = np.array([0.0])
        params = MlpParams([(W1, b1), (W2, b2)])
        _, cache = mlp_forward(params, np.array([0.0]))
        grads, dx = mlp_backward(params, cache, 1.0)
        assert grads[0][0][0, 0] == 0.0
        assert dx[0] == 0.0


def reference_forward(params, X):
    """The cached pass written out with fresh arrays: (Y, [(input, pre)])."""
    act, cache = X, []
    for k, (W, b) in enumerate(params.layers):
        pre = act @ W.T + b
        cache.append((act, pre))
        act = pre if k == len(params.layers) - 1 else np.maximum(pre, 0.0)
    return act, cache


def reference_backward(params, cache, dY):
    """The backward pass written out with fresh arrays: (grads, dX)."""
    grads, d = [None] * len(params.layers), dY
    for k in range(len(params.layers) - 1, -1, -1):
        act_in, pre = cache[k]
        if k != len(params.layers) - 1:
            d = d * (pre > 0.0)
        grads[k] = (d.T @ act_in, d.sum(axis=0))
        d = d @ params.layers[k][0]
    return grads, d


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_grads(a, b) -> bool:
    return all(same_bits(gW, hW) and same_bits(gb, hb) for (gW, gb), (hW, hb) in zip(a, b))


class TestMlpBuffers:
    """Cached passes write hidden layers into buffers the network owns and
    backward passes write deltas into module buffers; every result is the
    same bit for bit as the fresh-array formulas above."""

    @pytest.mark.parametrize("sizes", [[7, 32, 32, 1], [7, 32, 32, 32], [7, 1]],
                             ids=["one-output", "32-output", "one-layer"])
    def test_cached_pass_and_backward_match_the_formulas(self, sizes):
        # 1,000 rows is about an update's batch at rescue 2x4 and 6,560 an
        # m80v82 decision's; the last 64 rows run in buffers grown for it.
        # Zero rows of dY are the bootstrap states' value gradients: a
        # one-output layer must give +0.0 deltas there, as the matmul does,
        # which the one-layer net's dX shows
        rng = np.random.default_rng(len(sizes) + sizes[-1])
        params = init_mlp(sizes, rng)
        for rows in (1, 64, 1000, 6560, 64):
            X = rng.normal(size=(rows, 7))
            dY = rng.normal(size=(rows, sizes[-1]))
            dY[::3] = 0.0
            Y, cache = mlp_forward_batch(params, X)
            ref_Y, ref_cache = reference_forward(params, X)
            assert same_bits(Y, ref_Y)
            assert len(cache) == len(ref_cache)
            assert all(same_bits(act, ref_act) for act, (ref_act, _) in zip(cache, ref_cache))
            grads, dX = mlp_backward_batch(params, cache, dY)
            ref_grads, ref_dX = reference_backward(params, ref_cache, dY)
            assert same_grads(grads, ref_grads) and same_bits(dX, ref_dX)

    def test_h_and_critic_caches_stay_intact_together(self):
        rng = np.random.default_rng(5)
        model = init_scoring_model(2, 3, with_g=False, seed=0)
        critic = init_critic(2, 3, seed=1)
        A, T = rng.normal(size=(40, 2, 2)), rng.normal(size=(40, 4, 3))
        h, _, (h_cache, _) = score_pair_stack(model, A, T, with_cache=True)
        h_before = [act.copy() for act in h_cache]
        X = critic_rows(critic, A, T)
        values, critic_cache = critic_values(critic, X, [6] * 40, with_cache=True)
        assert all(same_bits(a, b) for a, b in zip(h_cache, h_before))
        dH = rng.normal(size=h.shape)
        h_grads, _ = score_pairs_backward(model, (h_cache, None), dH)
        _, ref_cache = reference_forward(model.h_net, h_before[0])
        ref_grads, _ = reference_backward(model.h_net, ref_cache, dH.reshape(-1, 1))
        assert same_grads(h_grads, ref_grads)
        # the critic's caches survived the h backward pass
        upstream = rng.normal(size=40)
        embed_grads, head_grads = critic_values_backward(critic, critic_cache, upstream)
        fresh = critic.copy()
        _, again = critic_values(fresh, X, [6] * 40, with_cache=True)
        ref_embed, ref_head = critic_values_backward(fresh, again, upstream)
        assert same_grads(embed_grads, ref_embed) and same_grads(head_grads, ref_head)

    def test_pass_without_cache_leaves_a_cache_valid(self):
        rng = np.random.default_rng(6)
        params = init_mlp([5, 32, 32, 1], rng)
        X, dY = rng.normal(size=(300, 5)), rng.normal(size=(300, 1))
        _, cache = mlp_forward_batch(params, X)
        mlp_forward_batch(params, rng.normal(size=(900, 5)), with_cache=False)
        grads, dX = mlp_backward_batch(params, cache, dY)
        ref_grads, ref_dX = reference_backward(params, reference_forward(params, X)[1], dY)
        assert same_grads(grads, ref_grads) and same_bits(dX, ref_dX)

    def test_two_backward_passes_on_one_cache_agree(self):
        rng = np.random.default_rng(7)
        params = init_mlp([5, 32, 32, 1], rng)
        _, cache = mlp_forward_batch(params, rng.normal(size=(200, 5)))
        dY = rng.normal(size=(200, 1))
        first, first_dX = mlp_backward_batch(params, cache, dY)
        second, second_dX = mlp_backward_batch(params, cache, dY)
        assert same_grads(first, second) and same_bits(first_dX, second_dX)

    def test_copy_shares_no_buffer(self):
        rng = np.random.default_rng(8)
        params = init_mlp([5, 32, 32, 1], rng)
        X = rng.normal(size=(100, 5))
        _, cache = mlp_forward_batch(params, X)
        clone = params.copy()
        assert len(clone.buffers) == len(params.buffers) == 2
        assert not any(np.shares_memory(a, b)
                       for a in clone.buffers for b in params.buffers)
        # a cached pass of the copy leaves the source's cache alone
        before = [act.copy() for act in cache]
        mlp_forward_batch(clone, rng.normal(size=(100, 5)))
        assert all(same_bits(a, b) for a, b in zip(cache, before))


class TestScoring:
    def _features(self, rng, n, m, extra=0):
        A = rng.normal(size=(n, 3))
        T = rng.normal(size=(m, 2))
        E = rng.normal(size=(n, m, extra)) if extra else None
        return A, T, E

    def test_consecutive_tables_share_no_memory(self):
        # the second m80v82 scoring pass reuses the first one's hidden
        # buffers but neither its tables nor their memory
        tables = []
        for seed in (0, 1):
            agents, tasks, extras = extract_battle_features(
                spawn_battle(load_scenario("m80v82", seed=seed)))
            model = init_scoring_model(agents.shape[1], tasks.shape[1],
                                       pair_extra_dim=extras.shape[-1], with_g=True, seed=0)
            tables.append(score_pairs(model, agents, tasks, pair_extras=extras))
            if seed == 0:
                first = (tables[0].h.copy(), tables[0].g.copy())
        for a in (tables[0].h, tables[0].g):
            for b in (tables[1].h, tables[1].g):
                assert not np.shares_memory(a, b)
        assert tables[0].h.tobytes() == first[0].tobytes()
        assert tables[0].g.tobytes() == first[1].tobytes()
        assert tables[0].h.tobytes() != tables[1].h.tobytes()

    def test_h_matches_per_pair_oracle(self):
        rng = np.random.default_rng(21)
        model = init_scoring_model(3, 2, seed=5)
        A, T, _ = self._features(rng, 4, 3)
        table = score_pairs(model, A, T)
        for i in range(4):
            for j in range(3):
                y, _ = mlp_forward(model.h_net, np.concatenate([A[i], T[j]]))
                assert abs(table.h[i, j] - y) <= 1e-12 * max(1.0, abs(y))

    def test_g_matches_per_pair_oracle(self):
        rng = np.random.default_rng(22)
        model = init_scoring_model(3, 2, seed=6)
        A, T, _ = self._features(rng, 2, 4)
        table = score_pairs(model, A, T)
        for j in range(4):
            for l in range(4):
                y, _ = mlp_forward(model.g_net, np.concatenate([T[j], T[l]]))
                assert abs(table.g[j, l] - y) <= 1e-12 * max(1.0, abs(y))

    def test_pair_extras_enter_h(self):
        rng = np.random.default_rng(23)
        model = init_scoring_model(3, 2, pair_extra_dim=2, with_g=False, seed=7)
        A, T, E = self._features(rng, 3, 3, extra=2)
        table = score_pairs(model, A, T, pair_extras=E)
        y, _ = mlp_forward(model.h_net, np.concatenate([A[1], T[2], E[1, 2]]))
        assert abs(table.h[1, 2] - y) <= 1e-12 * max(1.0, abs(y))
        E2 = E.copy()
        E2[1, 2] += 1.0
        table2 = score_pairs(model, A, T, pair_extras=E2)
        assert abs(table2.h[1, 2] - table.h[1, 2]) > 1e-9
        # Every other entry is untouched (same batch shape => bitwise).
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 2] = False
        np.testing.assert_array_equal(table2.h[mask], table.h[mask])

    def test_agent_permutation_permutes_h_rows(self):
        rng = np.random.default_rng(24)
        model = init_scoring_model(3, 2, seed=8)
        A, T, _ = self._features(rng, 5, 3)
        perm = rng.permutation(5)
        base = score_pairs(model, A, T)
        shuffled = score_pairs(model, A[perm], T)
        np.testing.assert_allclose(shuffled.h, base.h[perm], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(shuffled.g, base.g)

    def test_extra_task_leaves_existing_entries_bitwise(self):
        # Locality: scores of existing pairs cannot depend on new tasks.
        rng = np.random.default_rng(25)
        model = init_scoring_model(3, 2, seed=9)
        A, T, _ = self._features(rng, 4, 3)
        base = score_pairs(model, A, T)
        grown = score_pairs(model, A, np.vstack([T, rng.normal(size=(1, 2))]))
        np.testing.assert_allclose(grown.h[:, :3], base.h, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grown.g[:3, :3], base.g, rtol=1e-12, atol=1e-12)

    def test_fd_h_and_g_gradients(self):
        rng = np.random.default_rng(26)
        model = init_scoring_model(3, 2, seed=10)
        A, T, _ = self._features(rng, 3, 4)
        dH = rng.normal(size=(3, 4))
        dG = rng.normal(size=(4, 4))

        _, cache = score_pairs(model, A, T, with_cache=True)
        h_grads, g_grads = score_pairs_backward(model, cache, dH, dG)

        def h_obj(p):
            t = score_pairs(
                ScoringModel(p, None, 3, 2), A, T
            )
            return float((dH * t.h).sum())

        fd_check(model.h_net, h_obj, grads_to_vector(h_grads), rng)

        def g_obj(p):
            t = score_pairs(
                ScoringModel(model.h_net, p, 3, 2), A, T
            )
            return float((dH * t.h).sum() + (dG * t.g).sum())

        fd_check(model.g_net, g_obj, grads_to_vector(g_grads), rng)

    def test_shape_validation(self):
        model = init_scoring_model(3, 2, seed=0)
        with pytest.raises(NetError):
            score_pairs(model, np.zeros((2, 4)), np.zeros((2, 2)))
        with pytest.raises(NetError):
            score_pairs(model, np.zeros((2, 3)), np.zeros((2, 2)),
                        pair_extras=np.zeros((2, 2, 1)))
        with pytest.raises(NetError):
            # dG supplied to a model without g cache
            m2 = init_scoring_model(3, 2, with_g=False, seed=0)
            _, cache = score_pairs(m2, np.zeros((2, 3)), np.zeros((2, 2)), with_cache=True)
            score_pairs_backward(m2, cache, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_non_finite_features_stop_at_the_score_table(self):
        # The nets pass a NaN through; the ScoreTable that any solver reads rejects it.
        model = init_scoring_model(3, 2, seed=0)
        with pytest.raises(AssignError):
            score_pairs(model, np.array([[np.nan, 0.0, 0.0]]), np.zeros((2, 2)))


class TestCritic:
    def _entities(self, rng, counts=(3, 4)):
        out = []
        for kind, c in enumerate(counts):
            for _ in range(c):
                out.append((kind, rng.normal(size=2 + kind)))
        return out

    def test_permutation_invariant(self):
        rng = np.random.default_rng(31)
        critic = init_critic(num_kinds=2, feature_dim=3, seed=1)
        ents = self._entities(rng)
        base = critic_value(critic, ents)
        for _ in range(5):
            perm = list(rng.permutation(len(ents)))
            v = critic_value(critic, [ents[i] for i in perm])
            assert abs(v - base) <= 1e-12 * max(1.0, abs(base))

    def test_mean_pooling_duplication_invariant(self):
        # Duplicating the whole entity set leaves the mean unchanged.
        rng = np.random.default_rng(32)
        critic = init_critic(2, 3, seed=2)
        ents = self._entities(rng)
        v1 = critic_value(critic, ents)
        v2 = critic_value(critic, ents + ents)
        assert abs(v1 - v2) < 1e-12

    def test_single_entity_equals_head_of_embedding(self):
        rng = np.random.default_rng(33)
        critic = init_critic(2, 3, seed=3)
        feats = rng.normal(size=3)
        x = np.concatenate([[0.0, 1.0], feats])
        emb, _ = mlp_forward_batch(critic.embed_net, x[None, :])
        head, _ = mlp_forward_batch(critic.head_net, emb)
        assert critic_value(critic, [(1, feats)]) == head[0, 0]

    def test_variable_entity_counts(self):
        rng = np.random.default_rng(34)
        critic = init_critic(2, 3, seed=4)
        for counts in [(1, 0), (2, 5), (10, 10)]:
            v = critic_value(critic, self._entities(rng, counts))
            assert np.isfinite(v)

    def test_fd_gradients(self):
        rng = np.random.default_rng(35)
        critic = init_critic(2, 3, seed=5)
        ents = self._entities(rng)
        _, cache = critic_value(critic, ents, with_cache=True)
        embed_grads, head_grads = critic_backward(critic, cache, upstream=1.7)

        def embed_obj(p):
            c = CriticParams(p, critic.head_net, 2, 3)
            return 1.7 * critic_value(c, ents)

        fd_check(critic.embed_net, embed_obj, grads_to_vector(embed_grads), rng)

        def head_obj(p):
            c = CriticParams(critic.embed_net, p, 2, 3)
            return 1.7 * critic_value(c, ents)

        fd_check(critic.head_net, head_obj, grads_to_vector(head_grads), rng)

    def test_rejects_bad_entities(self):
        critic = init_critic(2, 3, seed=6)
        with pytest.raises(NetError):
            critic_value(critic, [])
        with pytest.raises(NetError):
            critic_value(critic, [(2, np.zeros(3))])
        with pytest.raises(NetError):
            critic_value(critic, [(0, np.zeros(4))])
        with pytest.raises(NetError):
            critic_value(critic, [(0, np.array([0.0, np.inf]))])


class TestCheckpoint:
    def test_array_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        arrays = {
            "a": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=(7,)).astype(np.float32),
        }
        path = tmp_path / "ck.bin"
        save_arrays(path, arrays, meta={"note": "x"})
        loaded, meta = load_arrays(path)
        assert meta == {"note": "x"}
        assert list(loaded) == ["a", "b"]
        for k in arrays:
            assert loaded[k].dtype == np.float32
            np.testing.assert_array_equal(loaded[k], arrays[k])
        # save(load(path)) writes the identical byte stream
        path2 = tmp_path / "ck2.bin"
        save_arrays(path2, loaded, meta=meta)
        assert path.read_bytes() == path2.read_bytes()

    def test_model_round_trip(self, tmp_path):
        model = init_scoring_model(3, 2, pair_extra_dim=1, seed=11)
        critic = init_critic(2, 3, seed=12)
        path = tmp_path / "models.bin"
        save_models(path, model, critic, extra_meta={"step": 40})
        m2, c2, meta = load_models(path)
        assert meta["step"] == 40
        assert (m2.feature_dim_agent, m2.feature_dim_task, m2.pair_extra_dim) == (3, 2, 1)
        assert (c2.num_kinds, c2.feature_dim) == (2, 3)
        # Parameters survive up to float32 quantization.
        for net_a, net_b in [(model.h_net, m2.h_net), (model.g_net, m2.g_net),
                             (critic.embed_net, c2.embed_net), (critic.head_net, c2.head_net)]:
            np.testing.assert_allclose(
                params_to_vector(net_a), params_to_vector(net_b), atol=1e-6, rtol=1e-6
            )
        # A second save/load cycle is bit-stable.
        path2 = tmp_path / "models2.bin"
        save_models(path2, m2, c2, extra_meta={"step": 40})
        assert path.read_bytes() == path2.read_bytes()

    def test_no_g_no_critic(self, tmp_path):
        model = init_scoring_model(2, 2, with_g=False, seed=13)
        path = tmp_path / "h_only.bin"
        save_models(path, model)
        m2, c2, meta = load_models(path)
        assert m2.g_net is None and c2 is None
        assert meta["has_g"] is False

    def test_rejects_non_finite_weights(self, tmp_path):
        model = init_scoring_model(2, 3, with_g=False, seed=14)
        model.h_net.layers[1][0][0, 0] = np.inf
        path = tmp_path / "inf.bin"
        save_models(path, model)
        with pytest.raises(CheckpointError, match="h_net.layer1.W"):
            load_models(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00")
        with pytest.raises(CheckpointError):
            load_arrays(path)
        path.write_bytes(b"\x04\x00\x00\x00junk")
        with pytest.raises(CheckpointError):
            load_arrays(path)
