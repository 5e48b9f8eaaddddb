"""Tests for the battle simulator, its constraints/features, and the
six scripted heuristics."""
import numpy as np
import pytest

from swarmplan.assign import Assignment, UNASSIGNED
from swarmplan.battle import (
    ARENA,
    HEURISTICS,
    BattleConfig,
    BattleError,
    UnitSpec,
    build_battle_constraints,
    closest_heuristic,
    extract_battle_features,
    frame_record,
    heuristic_policy,
    load_scenario,
    random_no_change,
    spawn_battle,
    step_battle,
    weakest_closest,
    weakest_closest_no_overkill,
    weakest_closest_no_overkill_no_change,
    weakest_closest_no_overkill_smart,
)
from swarmplan.battle import sim
from swarmplan.battle.sim import CONTACT_EPS


def make_spec(**overrides):
    base = dict(name="test", max_health=40.0, damage_per_attack=6.0,
                cooldown_frames=15, attack_range=12.0, speed=0.4,
                is_flying=False, type_id=0, radius=0.75)
    base.update(overrides)
    return UnitSpec(**base)


def duel_state(n=1, m=1, seed=0, **spec_overrides):
    spec = make_spec(**spec_overrides)
    return spawn_battle(BattleConfig(ours=[spec] * n, theirs=[spec] * m, seed=seed))


def play(state, policy):
    total = 0.0
    while not state.done:
        r, _, _ = step_battle(state, policy(state))
        total += r
    return total, state.outcome


def assign(state, targets):
    return Assignment(np.asarray(targets, dtype=int))


class TestSpecsAndScenarios:
    def test_spec_validation(self):
        with pytest.raises(BattleError):
            make_spec(max_health=0)
        with pytest.raises(BattleError):
            make_spec(speed=-1)

    def test_config_validation(self):
        spec = make_spec()
        with pytest.raises(BattleError):
            BattleConfig(ours=[], theirs=[spec])
        with pytest.raises(TypeError):  # module constants, not settable per battle
            BattleConfig(ours=[spec], theirs=[spec], assignment_period=0)
        with pytest.raises(TypeError):
            BattleConfig(ours=[spec], theirs=[spec], miss_probability=1.0)
        with pytest.raises(BattleError, match="seed"):
            BattleConfig(ours=[spec], theirs=[spec], seed=-1)

    def test_non_integer_seed_raises(self):
        # numpy's seeding would fail on 1.5 and take True as seed 1
        spec = make_spec()
        for seed in (1.5, True, "3"):
            with pytest.raises(BattleError, match="seed must be an integer"):
                BattleConfig(ours=[spec], theirs=[spec], seed=seed)

    def test_load_scenario(self):
        cfg = load_scenario("m5v5", seed=4)
        assert len(cfg.ours) == 5 and len(cfg.theirs) == 5
        assert cfg.seed == 4
        assert cfg.ours[0].name == "marine"

    def test_unknown_scenario(self):
        with pytest.raises(BattleError):
            load_scenario("no-such-scenario")

    def test_bad_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99, "specs": {}, "ours": [], "theirs": []}')
        with pytest.raises(BattleError):
            load_scenario(bad)


class TestSpawn:
    def test_deterministic(self):
        a = spawn_battle(load_scenario("m5v5", seed=8))
        b = spawn_battle(load_scenario("m5v5", seed=8))
        np.testing.assert_array_equal(a.pos, b.pos)

    def test_no_spawn_in_fire_range(self):
        for s in range(50):
            st = spawn_battle(load_scenario("m10v10", seed=s))
            for i, u in enumerate(st.ours):
                for j, e in enumerate(st.theirs):
                    # Reach is edge to edge: melee units connect at contact.
                    contact = u.spec.radius + e.spec.radius + CONTACT_EPS
                    d = np.linalg.norm(st.pos[i] - st.pos[st.n + j])
                    assert d > max(u.spec.attack_range, contact)
                    assert d > max(e.spec.attack_range, contact)

    def test_y_spread_exceeds_x_spread(self):
        xs, ys = [], []
        for s in range(2000):
            st = spawn_battle(load_scenario("m5v5", seed=10000 + s))
            xs += st.pos[:st.n, 0].tolist()
            ys += st.pos[:st.n, 1].tolist()
        assert np.var(ys) > 2 * np.var(xs)

    def test_full_health_and_zero_cooldown(self):
        st = spawn_battle(load_scenario("m5v5", seed=0))
        for u in st.ours + st.theirs:
            assert u.health == u.spec.max_health
        assert (st.cooldown == 0).all()


class TestStepBattle:
    def test_idle_out_of_range_zero_reward(self):
        st = duel_state()
        r, done, _ = step_battle(st, assign(st, [UNASSIGNED]))
        assert r == 0.0
        assert not done

    def test_reward_formula(self):
        st = duel_state()
        st.health[:] = [30.0, 20.0]  # our side lost 10 of initial 40, they lost 20
        # Idle window far apart: no further health change, reward reflects
        # the swing booked during the window only, so set the "before"
        # via a fresh window with manual damage.
        our_before = st.team_health(0)
        their_before = st.team_health(1)
        r, _, _ = step_battle(st, assign(st, [UNASSIGNED]))
        expect = (st.team_health(0) - our_before
                  + their_before - st.team_health(1)) / st.our_health0
        assert r == expect

    def test_attack_cadence(self, monkeypatch):
        monkeypatch.setattr(sim, "MISS_PROBABILITY", 0.0)
        # Passive dummy: tiny range and speed, so it never fights back.
        attacker = make_spec()
        dummy = make_spec(attack_range=1e-6, speed=1e-9, radius=1e-6,
                          damage_per_attack=1e-9)
        st = spawn_battle(BattleConfig(ours=[attacker], theirs=[dummy], seed=0))
        st.pos[:] = [[50.0, 50.0], [55.0, 50.0]]  # inside range 12
        st.health[1] = 1000.0  # pre-damage so it survives; spec max is 40
        healths = [st.theirs[0].health]
        for _ in range(10):  # 60 frames
            step_battle(st, assign(st, [0]))
            healths.append(st.theirs[0].health)
        dealt = healths[0] - np.array(healths)
        # Attacks land on frames 1, 16, 31, 46 -> windows see 1,1,0,1,0,1,...
        for w, frames in enumerate(np.arange(6, 61, 6)):
            expected_hits = 1 + (frames - 1) // 15
            assert dealt[w + 1] == pytest.approx(6.0 * expected_hits)

    def test_telescoped_reward_identity(self):
        for s in range(5):
            cfg = load_scenario("m5v5", seed=s)
            st = spawn_battle(cfg)
            total, _ = play(st, heuristic_policy("c"))
            expect = (st.team_health(0) - st.our_health0
                      + sum(sp.max_health for sp in cfg.theirs)
                      - st.team_health(1)) / st.our_health0
            assert total == pytest.approx(expect, abs=1e-12)

    def test_determinism_bit_identical_replays(self):
        def replay(seed):
            st = spawn_battle(load_scenario("m5v5", seed=seed))
            pol = heuristic_policy("wcnok")
            records = [frame_record(st)]
            while not st.done:
                step_battle(st, pol(st))
                records.append(frame_record(st))
            return records
        assert replay(21) == replay(21)

    def test_dead_target_assignment_is_idle(self):
        st = duel_state(n=1, m=2)
        st.health[1] = 0.0
        step_battle(st, assign(st, [0]))
        assert st.target[0] == -1
        assert frame_record(st)["ours"][0]["target"] is None

    def test_invalid_assignment_raises(self):
        st = duel_state()
        with pytest.raises(BattleError):
            step_battle(st, assign(st, [5]))
        with pytest.raises(BattleError):
            step_battle(st, assign(st, [0, 0]))

    def test_rejected_assignment_changes_nothing(self):
        st = spawn_battle(load_scenario("m5v5", seed=0))
        record, features = frame_record(st), extract_battle_features(st)
        with pytest.raises(BattleError, match="unit 2"):
            step_battle(st, assign(st, [0, 1, 7, 0, 0]))
        assert frame_record(st) == record
        for before, after in zip(features, extract_battle_features(st)):
            np.testing.assert_array_equal(after, before)

    def test_frame_cap_draw(self, monkeypatch):
        monkeypatch.setattr(sim, "FRAME_CAP", 12)
        st = duel_state()
        done = False
        while not done:
            _, done, outcome = step_battle(st, assign(st, [UNASSIGNED]))
        assert outcome == "draw"
        assert st.frame == 12

    def test_no_healing(self):
        st = spawn_battle(load_scenario("m5v5", seed=6))
        pol = heuristic_policy("c")
        prev = st.health.tolist()
        while not st.done:
            step_battle(st, pol(st))
            cur = st.health.tolist()
            assert all(c <= p for c, p in zip(cur, prev))
            prev = cur


def resolve_collisions(state):
    """The separation pass that `step_battle` runs after each frame."""
    state.resolve_collisions()


class TestCollisions:
    def test_ground_overlap_separated(self):
        st = duel_state(n=2)
        st.pos[:2] = [[50.0, 50.0], [50.5, 50.0]]
        resolve_collisions(st)
        assert np.linalg.norm(st.pos[0] - st.pos[1]) >= 1.5 - 1e-9

    def test_flying_never_pushed(self):
        st = duel_state(is_flying=True)
        st.pos[:] = [[50.0, 50.0], [50.1, 50.0]]
        before = st.pos.copy()
        resolve_collisions(st)
        np.testing.assert_array_equal(st.pos, before)


class TestConstraints:
    def test_capacity_is_enemy_health(self):
        st = duel_state(n=2, m=3)
        st.health[3:] = [7.5, 0.0]
        cons = build_battle_constraints(st)
        np.testing.assert_allclose(cons.u, [40.0, 7.5, 0.0])

    def test_contribution_is_damage(self):
        st = duel_state(n=2, m=2)
        st.health[1] = 0.0
        cons = build_battle_constraints(st)
        np.testing.assert_allclose(cons.mu[0], [6.0, 6.0])
        np.testing.assert_allclose(cons.mu[1], [0.0, 0.0])


class TestFeatures:
    def test_single_type_eight_features(self):
        st = spawn_battle(load_scenario("m5v5", seed=0))
        agents, tasks, extras = extract_battle_features(st)
        assert agents.shape == (5, 8)
        assert tasks.shape == (5, 8)
        assert extras.shape == (5, 5, 2)

    def test_two_types_nine_features(self):
        st = spawn_battle(load_scenario("zh10v10", seed=0))
        agents, _, _ = extract_battle_features(st)
        assert agents.shape[1] == 9

    def test_prev_target_flag(self):
        st = duel_state(n=2, m=2)
        step_battle(st, assign(st, [1, UNASSIGNED]))
        _, _, extras = extract_battle_features(st)
        assert extras[0, 1, 0] == 1.0
        assert extras[0, 0, 0] == 0.0
        assert extras[1, 1, 0] == 0.0

    def test_stationary_velocity_zero(self):
        st = duel_state()
        agents, _, _ = extract_battle_features(st)
        assert agents[0, 2] == 0.0 and agents[0, 3] == 0.0

    def test_distance_extra(self):
        st = duel_state()
        _, _, extras = extract_battle_features(st)
        d = np.linalg.norm(st.pos[0] - st.pos[1])
        assert extras[0, 0, 1] == pytest.approx(d / ARENA)

    def test_health_normalized(self):
        st = duel_state()
        st.health[0] = 10.0
        agents, _, _ = extract_battle_features(st)
        assert agents[0, 4] == pytest.approx(0.25)


def grid_state(our_xy, their_xy, their_health=None, damages=None):
    """Battle state with hand-placed units for heuristic tests."""
    n, m = len(our_xy), len(their_xy)
    damages = damages or [6.0] * n
    specs_ours = [make_spec(damage_per_attack=d) for d in damages]
    cfg = BattleConfig(ours=specs_ours, theirs=[make_spec()] * m, seed=0)
    st = spawn_battle(cfg)
    st.pos[:] = np.array(our_xy + their_xy, dtype=float)
    if their_health:
        st.health[n:] = their_health
    return st


class TestHeuristics:
    def test_closest_picks_nearest(self):
        st = grid_state([(10, 50)], [(20, 50), (80, 50)])
        assert closest_heuristic(st).target[0] == 0

    def test_closest_tie_by_uid(self):
        st = grid_state([(50, 50)], [(60, 50), (40, 50)])
        assert closest_heuristic(st).target[0] == 0  # equal distance, lower uid

    def test_wc_all_on_weakest(self):
        st = grid_state([(10, 40), (10, 60)], [(80, 50), (20, 50)],
                        their_health=[5.0, 40.0])
        np.testing.assert_array_equal(weakest_closest(st).target, [0, 0])

    def test_wcnok_spec_trace(self):
        # damages [6,6,6], one enemy at health 10: two attackers admitted,
        # third moves to the next enemy.
        st = grid_state([(10, 40), (10, 50), (10, 60)],
                        [(30, 50), (80, 50)],
                        their_health=[10.0, 40.0])
        t = weakest_closest_no_overkill(st).target
        np.testing.assert_array_equal(t, [0, 0, 1])

    def test_wcnok_single_enemy_leftover_unassigned(self):
        st = grid_state([(10, 40), (10, 50), (10, 60)], [(30, 50)],
                        their_health=[10.0])
        t = weakest_closest_no_overkill(st).target
        np.testing.assert_array_equal(t, [0, 0, UNASSIGNED])

    def test_wcnok_no_overkill_invariant_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            st = grid_state(
                [tuple(rng.uniform(5, 45, 2)) for _ in range(n)],
                [tuple(rng.uniform(55, 95, 2)) for _ in range(m)],
                their_health=list(rng.uniform(1, 40, m)),
                damages=list(rng.uniform(1, 10, n)),
            )
            t = weakest_closest_no_overkill(st).target
            for j in range(m):
                attackers = [i for i in range(n) if t[i] == j]
                if attackers:
                    total = sum(st.ours[i].spec.damage_per_attack for i in attackers)
                    last = st.ours[attackers[-1]].spec.damage_per_attack
                    assert total - last < st.theirs[j].health

    def test_wcnoknc_keeps_target_until_death(self):
        st = grid_state([(10, 50)], [(30, 50), (40, 50)],
                        their_health=[40.0, 5.0])
        first = weakest_closest_no_overkill_no_change(st, None).target
        assert first[0] == 1  # weakest
        # Re-evaluate with healths flipped: sticky target remains.
        st.health[1:] = [5.0, 40.0]
        again = weakest_closest_no_overkill_no_change(st, first).target
        assert again[0] == 1
        st.health[2] = 0.0
        after_death = weakest_closest_no_overkill_no_change(st, again).target
        assert after_death[0] == 0

    def test_wcnoks_drops_overkilling_target(self):
        # Two units stuck on a 5-health enemy at 6 damage each: keeping
        # both risks overkill, so one re-targets.
        st = grid_state([(10, 40), (10, 60)], [(30, 50), (80, 50)],
                        their_health=[5.0, 40.0])
        prev = np.array([0, 0])
        t = weakest_closest_no_overkill_smart(st, prev).target
        assert sorted(t) == [0, 1]

    def test_rand_nc_persists(self):
        st = grid_state([(10, 50)], [(30, 50), (40, 50)])
        rng = np.random.default_rng(0)
        first = random_no_change(st, rng).target
        again = random_no_change(st, rng, first).target
        assert again[0] == first[0]
        st.health[1 + first[0]] = 0.0
        moved = random_no_change(st, rng, first).target
        assert moved[0] == 1 - first[0]

    def test_policy_factory_validates(self):
        with pytest.raises(BattleError):
            heuristic_policy("nope")
        with pytest.raises(BattleError):
            heuristic_policy("rand_nc")(duel_state())

    def test_all_heuristics_run_battles(self):
        for kind in HEURISTICS:
            st = spawn_battle(load_scenario("m5v5", seed=1))
            pol = heuristic_policy(kind, rng=np.random.default_rng(1))
            _, outcome = play(st, pol)
            assert outcome in {"win", "loss", "draw"}
