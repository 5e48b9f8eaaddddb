"""Tests for the array form of the battle simulator: the distance helpers
and the pruned Gauss-Seidel collision pass, each against the per-pair
computation it replaces, bit for bit."""
import numpy as np
import pytest

from swarmplan.battle import BattleConfig, UnitSpec, spawn_battle
from swarmplan.battle import sim
from swarmplan.battle.sim import _norm, pair_distances, vec_norm


def random_deltas(rng, k):
    scale = rng.choice([1e-6, 1e-3, 1.0, 7.5, 100.0, 1e4], size=(k, 1))
    deltas = rng.normal(size=(k, 2)) * scale
    deltas[rng.random(k) < 0.1, 0] = 0.0
    deltas[rng.random(k) < 0.1, 1] = 0.0
    deltas[rng.random(k) < 0.02] = 0.0
    whole = rng.random(k) < 0.1
    deltas[whole] = np.round(deltas[whole])
    return deltas


@pytest.mark.parametrize("seed", range(3))
def test_vec_norm_matches_linalg_norm_bitwise(seed):
    rng = np.random.default_rng(seed)
    deltas = random_deltas(rng, 20000)
    expect = np.array([np.linalg.norm(d) for d in deltas])
    np.testing.assert_array_equal(vec_norm(deltas), expect)
    for d, e in zip(deltas[:500], expect[:500]):
        assert vec_norm(d) == e


@pytest.mark.parametrize("seed", range(2))
def test_norm_matches_vec_norm_bitwise(seed):
    # The scales of every battle distance, both signs, zeros, and
    # subnormal components, whose squares underflow on both sides.
    rng = np.random.default_rng(seed)
    k = 60000
    deltas = rng.normal(size=(k, 2)) * 10.0 ** rng.uniform(-6.0, 3.0, size=(k, 1))
    deltas[rng.random(k) < 0.05, 0] = 0.0
    deltas[rng.random(k) < 0.05, 1] = 0.0
    deltas[rng.random(k) < 0.01] = 0.0
    tiny = rng.random(k) < 0.02
    deltas[tiny] = rng.normal(size=(int(tiny.sum()), 2)) * 10.0 ** rng.uniform(
        -323.0, -308.0, size=(int(tiny.sum()), 1))
    expect = vec_norm(deltas).tolist()
    for (dx, dy), e in zip(deltas.tolist(), expect):
        assert _norm(dx, dy) == e, (dx, dy)
    for dx, dy in ([0.0, 0.0], [-0.0, 0.0], [3.0, -4.0], [5e-324, 0.0], [1e-310, -3e-320]):
        assert _norm(dx, dy) == vec_norm(np.array([dx, dy])) == _norm(-dx, -dy)


def test_vec_norm_signs_and_zero():
    for d in ([0.0, 0.0], [-0.0, 0.0], [3.0, -4.0], [-3.0, -4.0], [-1e-3, 2.5]):
        d = np.array(d)
        assert vec_norm(d) == np.linalg.norm(d) == vec_norm(-d)


def test_pair_distances_match_per_pair_norm():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.0, 100.0, (80, 2))
    q = rng.uniform(0.0, 100.0, (82, 2))
    q[:5] = p[:5]  # coincident pairs give exact zeros
    expect = np.array([[np.linalg.norm(a - b) for b in q] for a in p])
    np.testing.assert_array_equal(pair_distances(p, q), expect)


def reference_collisions(state):
    """The per-pair separation loop over a state's rows: later pairs see
    earlier pushes."""
    pos = state.pos
    ground = [k for k, spec in enumerate(state.specs)
              if state.health[k] > 0.0 and not spec.is_flying]
    for a in range(len(ground)):
        for b in range(a + 1, len(ground)):
            ka, kb = ground[a], ground[b]
            delta = pos[kb] - pos[ka]
            dist = float(np.linalg.norm(delta))
            min_dist = state.specs[ka].radius + state.specs[kb].radius
            if dist >= min_dist:
                continue
            direction = np.array([1.0, 0.0]) if dist == 0.0 else delta / dist
            push = 0.5 * (min_dist - dist)
            pos[ka] = pos[ka] - direction * push
            pos[kb] = pos[kb] + direction * push


def crowd(rng, k):
    """A battle whose k units of ours are packed into a small patch: mixed
    radii, some flying, some dead, some stacked on the same spot."""
    specs = [UnitSpec(name=f"u{r}{f}", max_health=10.0, damage_per_attack=1.0,
                      cooldown_frames=5, attack_range=1.0, speed=0.5,
                      is_flying=f, type_id=0, radius=r)
             for r in (0.5, 0.75, 2.0) for f in (False, True)]
    picks = rng.integers(len(specs), size=k)
    picks[rng.random(k) < 0.7] = 2  # mostly ground, radius 0.75
    cfg = BattleConfig(ours=[specs[i] for i in picks], theirs=[specs[0]], seed=0)
    state = spawn_battle(cfg)
    spread = rng.choice([0.5, 2.0, 6.0, 20.0])
    for row in range(k):
        state.pos[row] = 50.0 + rng.uniform(0.0, spread, 2)
        if rng.random() < 0.05:
            state.health[row] = 0.0
    for _ in range(int(rng.integers(0, 3))):
        state.pos[int(rng.integers(k))] = state.pos[0]
    return state


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("slack,screen", [(None, None), (0.0, 0.05), (0.05, 1.0)])
def test_collisions_match_per_pair_loop(monkeypatch, seed, slack, screen):
    # Narrow margins force the rare paths: skipped pairs that did
    # overlap, and passes whose pushes outgrow the screened pairs.
    if slack is not None:
        monkeypatch.setattr(sim, "_SLACK", slack)
        monkeypatch.setattr(sim, "_SCREEN", screen)
    seen = {"hits": 0, "widened passes": 0}
    outgrown = []  # start positions of separations whose pushes outgrew the screen
    overlapped_at_turn, sweep = sim._overlapped_at_turn, sim._sweep

    def counting_overlapped_at_turn(*args):
        hit = overlapped_at_turn(*args)
        seen["hits"] += hit
        return hit

    def counting_sweep(pos, start, *pairs):
        widened = bool(outgrown) and outgrown[-1] is start
        seen["widened passes"] += widened
        strayed, trail = sweep(pos, start, *pairs)
        if not widened and 2.0 * strayed.max() > sim._SCREEN - sim._ROUNDING:
            outgrown.append(start)
        return strayed, trail

    monkeypatch.setattr(sim, "_overlapped_at_turn", counting_overlapped_at_turn)
    monkeypatch.setattr(sim, "_sweep", counting_sweep)
    rng = np.random.default_rng(seed)
    for _ in range(60):
        state = crowd(rng, int(rng.integers(2, 45)))
        start = state.pos.copy()
        reference_collisions(state)
        expect = state.pos.copy()
        state.pos[:] = start
        state.resolve_collisions()  # the pass that step_battle runs
        np.testing.assert_array_equal(state.pos, expect)
    if slack is not None:
        assert seen["hits"] > 0 and seen["widened passes"] > 0, seen
