"""Tests for the rescue grid environment and its exact oracles.

The routing oracles are checked against brute-force enumeration over
permutations and partitions on small instances.
"""
import itertools

import numpy as np
import pytest

from swarmplan.assign import Assignment, UNASSIGNED
from swarmplan.rescue import (
    GridState,
    RescueConfig,
    RescueError,
    build_constraints,
    chebyshev,
    closest_baseline,
    dp_subset_paths,
    extract_features,
    mvr_exact,
    plan_policy,
    run_episode,
    spawn,
    step,
)

# Critical value of the chi-squared distribution with 255 degrees of
# freedom at p = 0.01 (Wilson-Hilferty approximation, cross-checked
# against standard tables).
CHI2_255_P01 = 310.46


def make_state(ambulances, victims, picked=None):
    """A one-lane state at step 0; no victim picked unless `picked` says so."""
    picked = [False] * len(victims) if picked is None else picked
    return GridState([list(ambulances)], [list(victims)], [picked], [0])


def advance(state, target, max_steps=400):
    """Step a one-lane state with `target`; returns its done flag."""
    done = step(state, np.array([target]), max_steps)
    return bool(done[0])


class TestSpawn:
    def test_reproducible_and_counts(self):
        cfg = RescueConfig(2, 4, seed=7)
        a, b = spawn(cfg), spawn(cfg)
        assert a.cells() == b.cells()
        assert a.ambulances.shape == (1, 2, 2) and a.victims.shape == (1, 4, 2)
        assert not a.picked.any()

    def test_coordinates_on_grid(self):
        for s in range(50):
            st = spawn(RescueConfig(3, 5, seed=s))
            ambulances, victims, _ = st.cells()
            for x, y in ambulances + victims:
                assert 0 <= x < 16 and 0 <= y < 16

    def test_cell_occupancy_uniform(self):
        counts = np.zeros(256)
        for s in range(5000):
            ambulances, victims, _ = spawn(RescueConfig(2, 4, seed=100000 + s)).cells()
            for x, y in ambulances + victims:
                counts[x * 16 + y] += 1
        expected = counts.sum() / 256
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_255_P01


class TestLowLevelMove:
    """The king-move rule inside `step`: one (sign(dx), sign(dy)) move."""

    def test_diagonal(self):
        st = make_state([(0, 0)], [(3, 5)])
        advance(st, [0])
        assert st.cells()[0] == [[1, 1]]

    def test_stay(self):
        st = make_state([(4, 4)], [(4, 4)])
        advance(st, [0])
        assert st.cells()[0] == [[4, 4]]

    def test_reaches_in_chebyshev_steps(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pos = rng.integers(0, 16, 2).tolist()
            target = rng.integers(0, 16, 2).tolist()
            st = make_state([pos], [target])
            for _ in range(chebyshev(pos, target)):
                assert not st.picked[0, 0]
                advance(st, [0])
            assert st.cells()[0] == [target]


class TestStep:
    def test_arrival_pickup(self):
        st = make_state([(0, 1)], [(0, 2)])
        done = step(st, np.array([[0]]))
        assert st.cells() == ([[0, 2]], [[0, 2]], [True])
        assert done.tolist() == [True]

    def test_contingent_pickup(self):
        # Ambulance assigned to the far victim passes over the near one.
        st = make_state([(0, 0)], [(0, 1), (0, 2)])
        done = advance(st, [1])
        assert st.picked.tolist() == [[True, False]]  # swept en route
        assert not done

    def test_two_leg_episode_length(self):
        cfg = RescueConfig(1, 2, seed=0)
        st = make_state([(0, 0)], [(0, 3), (0, 5)])
        steps = 0
        done = False
        while not done:
            j = 0 if not st.picked[0, 0] else 1
            done = advance(st, [j], cfg.max_steps)
            steps += 1
        assert steps == 5 and st.step_count.tolist() == [5]

    def test_unassigned_stays(self):
        st = make_state([(3, 3)], [(0, 0)])
        advance(st, [UNASSIGNED])
        assert st.cells()[0] == [[3, 3]]

    def test_target_picked_victim_is_legal(self):
        st = make_state([(5, 5)], [(0, 0), (9, 9)], picked=[True, False])
        done = step(st, np.array([[0]]))
        assert st.cells() == ([[4, 4]], [[0, 0], [9, 9]], [True, False])
        assert not done[0]

    def test_invalid_index_raises(self):
        st = make_state([(0, 0)], [(1, 1)])
        with pytest.raises(RescueError):
            step(st, np.array([[5]]))
        with pytest.raises(RescueError):
            step(st, np.array([[-2]]))
        with pytest.raises(RescueError):
            step(st, np.array([[0, 0]]))

    def test_off_grid_state_raises(self):
        with pytest.raises(RescueError):
            make_state([(0, 16)], [(1, 1)])
        with pytest.raises(RescueError):
            make_state([(0, 0)], [(-1, 1)])

    def test_negative_seed_raises(self):
        with pytest.raises(RescueError, match="seed"):
            RescueConfig(2, 4, seed=-1)

    def test_non_integer_config_raises(self):
        """`spawn` would fail on 2.5 ambulances and take True as seed 1."""
        for kwargs, name in (({"n": 2.5}, "n"), ({"m": 4.0}, "m"), ({"seed": True}, "seed"),
                             ({"max_steps": "400"}, "max_steps")):
            with pytest.raises(RescueError, match=f"{name} must be an integer"):
                RescueConfig(**kwargs)

    def test_spawn_overlap_swept_first_step(self):
        st = make_state([(2, 2)], [(2, 2), (9, 9)])
        assert not st.picked.any()  # shown open until the first step
        advance(st, [1])
        assert st.cells() == ([[3, 3]], [[2, 2], [9, 9]], [True, False])

    def test_max_steps_cap(self):
        st = make_state([(0, 0)], [(15, 15)])
        done = False
        while not done:
            done = advance(st, [UNASSIGNED], max_steps=3)
        assert st.step_count.tolist() == [3]
        assert not st.all_picked
        idle = lambda state: Assignment(np.array([UNASSIGNED]))
        steps, total, capped = run_episode(RescueConfig(1, 1, seed=0, max_steps=3), idle)
        assert (steps, capped) == (3, True) and total == pytest.approx(-0.03)

    def test_picked_flags_monotone(self):
        st = spawn(RescueConfig(2, 4, seed=3))
        prev_picked = st.picked.copy()
        done = False
        while not done:
            done = advance(st, closest_baseline(st).target)
            assert np.all(st.picked | ~prev_picked)
            prev_picked = st.picked.copy()

    def test_lanes_step_like_single_episodes(self):
        """A subset of the lanes of a stacked state steps exactly as each
        lane would on its own; the other lanes do not move."""
        configs = [RescueConfig(3, 5, seed=s) for s in range(4)]
        singles = [spawn(cfg) for cfg in configs]
        stacked = GridState.empty(4, 3, 5).respawn(np.arange(4), [cfg.seed for cfg in configs])
        rng = np.random.default_rng(8)
        for t in range(12):
            lanes = np.array([0, 1, 2, 3]) if t % 3 else np.array([1, 3])
            targets = rng.integers(-1, 5, size=(len(lanes), 3))
            done = step(stacked, targets, max_steps=10, lanes=lanes)
            for k, lane in enumerate(lanes):
                assert done[k] == step(singles[lane], targets[k:k + 1], 10)[0]
            for lane, single in enumerate(singles):
                for name in ("ambulances", "victims", "picked"):
                    assert np.array_equal(getattr(stacked, name)[lane], getattr(single, name)[0])
                assert stacked.step_count[lane] == single.step_count[0]
            agents, tasks = extract_features(stacked, lanes)
            for k, lane in enumerate(lanes):
                one_agents, one_tasks = extract_features(singles[lane])
                assert np.array_equal(agents[k], one_agents[0])
                assert np.array_equal(tasks[k], one_tasks[0])


class TestConstraintsAndFeatures:
    def test_fresh_constraints(self):
        st = spawn(RescueConfig(2, 4, seed=1))
        cons = build_constraints(st)
        np.testing.assert_array_equal(cons.mu, np.ones((2, 4)))
        np.testing.assert_array_equal(cons.u, np.ones(4))

    def test_picked_victim_zero_capacity(self):
        st = make_state([(0, 0)], [(1, 1), (2, 2)], picked=[True, False])
        np.testing.assert_array_equal(build_constraints(st).u, [0.0, 1.0])

    def test_features(self):
        st = make_state([(15, 0)], [(3, 3)], picked=[True])
        agents, tasks = extract_features(st)
        np.testing.assert_allclose(agents, [[[1.0, 0.0]]])
        np.testing.assert_allclose(tasks, [[[0.2, 0.2, 1.0]]])


class TestEpisodes:
    def test_determinism(self):
        a = run_episode(RescueConfig(2, 4, seed=11), closest_baseline)
        b = run_episode(RescueConfig(2, 4, seed=11), closest_baseline)
        assert a == b

    def test_return_couples_to_length(self):
        steps, total, _ = run_episode(RescueConfig(2, 4, seed=4), closest_baseline)
        assert abs(total - (-0.01 * steps)) < 1e-9

    def test_baseline_terminates_under_cap(self):
        for s in range(2000):
            _, _, capped = run_episode(RescueConfig(2, 4, seed=s), closest_baseline)
            assert not capped


class TestClosestBaseline:
    def test_nearest(self):
        st = make_state([(0, 0)], [(0, 2), (5, 5)])
        assert closest_baseline(st).target[0] == 0

    def test_tie_lowest_index(self):
        st = make_state([(0, 0)], [(2, 0), (0, 2)])
        assert closest_baseline(st).target[0] == 0

    def test_ignores_picked(self):
        st = make_state([(0, 0)], [(0, 1), (5, 5)], picked=[True, False])
        assert closest_baseline(st).target[0] == 1

    def test_all_picked_unassigned(self):
        st = make_state([(0, 0)], [(0, 1)], picked=[True])
        assert closest_baseline(st).target[0] == UNASSIGNED


def brute_path(positions, start_v):
    """Min path length visiting all positions starting at start_v."""
    rest = [k for k in range(len(positions)) if k != start_v]
    best = np.inf
    for perm in itertools.permutations(rest):
        cost = 0
        cur = start_v
        for v in perm:
            cost += chebyshev(positions[cur], positions[v])
            cur = v
        best = min(best, cost)
    return best


def brute_mvr(ambulances, victims):
    """Min makespan over all victim partitions and visit orders."""
    n, m = len(ambulances), len(victims)
    best = np.inf
    for labels in itertools.product(range(n), repeat=m):
        worst = 0
        for i in range(n):
            mine = [v for v in range(m) if labels[v] == i]
            if not mine:
                continue
            cost = min(
                chebyshev(ambulances[i], victims[s])
                + brute_path([victims[v] for v in mine], k)
                for k, s in enumerate(mine)
            )
            worst = max(worst, cost)
        best = min(best, worst)
    return best


def reference_subset_table(positions):
    """The Held-Karp table filled one (mask, v) entry at a time, as
    `dp_subset_paths` did before it filled whole popcount layers."""
    m = len(positions)
    D = np.array([[chebyshev(a, b) for b in positions] for a in positions], dtype=float)
    table = np.full((1 << m, m), np.inf)
    for v in range(m):
        table[1 << v, v] = 0.0
    masks = np.arange(1, 1 << m)
    counts = np.array([bin(x).count("1") for x in masks])
    for size in range(2, m + 1):
        for mask in masks[counts == size]:
            for v in range(m):
                if mask & (1 << v):
                    table[mask, v] = np.min(D[v] + table[mask ^ (1 << v)])
    return table


class TestSubsetPaths:
    @pytest.mark.parametrize("m", range(1, 16))
    def test_table_equals_entrywise_reference(self, m):
        rng = np.random.default_rng(100 + m)
        positions = [tuple(int(c) for c in rng.integers(0, 16, 2)) for _ in range(m)]
        if m > 2:  # coincident victims: a repeated cell and a tight cluster
            positions[1] = positions[0]
            positions[2] = (positions[0][0], min(positions[0][1] + 1, 15))
        paths = dp_subset_paths(positions)
        assert np.array_equal(paths.table, reference_subset_table(positions))

    def test_line_sweep(self):
        paths = dp_subset_paths([(0, 0), (3, 0), (5, 0)])
        full = (1 << 3) - 1
        assert paths.table[full, 0] == 5

    def test_single_victim(self):
        paths = dp_subset_paths([(7, 7)])
        assert paths.table[1, 0] == 0

    def test_singleton_zero(self):
        paths = dp_subset_paths([(1, 2), (3, 4), (5, 6)])
        for v in range(3):
            assert paths.table[1 << v, v] == 0

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            positions = [tuple(rng.integers(0, 16, 2)) for _ in range(m)]
            paths = dp_subset_paths(positions)
            full = (1 << m) - 1
            for v in range(m):
                assert paths.table[full, v] == brute_path(positions, v)

    def test_monotone_in_subset(self):
        rng = np.random.default_rng(18)
        positions = [tuple(rng.integers(0, 16, 2)) for _ in range(5)]
        paths = dp_subset_paths(positions)
        for mask in range(1, 1 << 5):
            for v in range(5):
                if mask & (1 << v):
                    for w in range(5):
                        if not mask & (1 << w):
                            assert (paths.table[mask | (1 << w), v]
                                    >= paths.table[mask, v])


class TestMvrExact:
    def test_two_leg_example(self):
        st = make_state([(0, 0)], [(0, 3), (0, 5)])
        assert mvr_exact(st).makespan == 5

    def test_opposite_corners(self):
        st = make_state([(0, 0), (15, 15)], [(1, 1), (14, 14)])
        assert mvr_exact(st).makespan == 1

    def test_routes_partition_victims(self):
        for s in range(30):
            st = spawn(RescueConfig(2, 4, seed=s))
            plan = mvr_exact(st)
            flat = sorted(j for r in plan.routes for j in r)
            assert flat == list(range(4))

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 6))
            ambulances = [tuple(rng.integers(0, 16, 2)) for _ in range(n)]
            victims = [tuple(rng.integers(0, 16, 2)) for _ in range(m)]
            st = make_state(ambulances, victims)
            assert mvr_exact(st).makespan == brute_mvr(ambulances, victims)

    def test_dominates_baseline(self):
        for s in range(100):
            cfg = RescueConfig(2, 4, seed=s)
            plan = mvr_exact(spawn(cfg))
            length, _, _ = run_episode(cfg, closest_baseline)
            assert plan.makespan <= length

    def test_execution_takes_exactly_makespan(self):
        for s in range(100):
            cfg = RescueConfig(3, 6, seed=s)
            plan = mvr_exact(spawn(cfg))
            length, _, capped = run_episode(cfg, plan_policy(plan))
            assert not capped
            assert length == max(plan.makespan, 1)

    def test_skips_picked_victims(self):
        st = make_state([(0, 0)], [(5, 5), (0, 2)], picked=[True, False])
        plan = mvr_exact(st)
        assert plan.makespan == 2
        assert plan.routes == [[1]]

    def test_budget_guard(self):
        st = make_state([(0, 0)] * 9, [(1, 1)])
        with pytest.raises(RescueError):
            mvr_exact(st)
        st = make_state([(0, 0)], [(i, 0) for i in range(16)])
        with pytest.raises(RescueError):
            mvr_exact(st)
