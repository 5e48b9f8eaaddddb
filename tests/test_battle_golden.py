"""Golden traces for the battle simulator.

Every shipped scenario is played with every scripted heuristic, and the
whole trace is folded into one sha256 per battle: per window the chosen
targets, the reward, each unit's position, velocity, health, cooldown
and current target, the opponent waypoint, the rng state, the features
a learned policy reads and the constraint set. The digests in
`fixtures/battle_golden.json` pin the simulator's behaviour bit for bit,
so a refactor of the simulator must reproduce them exactly.

Regenerate the fixture (only for a deliberate behaviour change) with

    PYTHONPATH=src python tests/test_battle_golden.py
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from swarmplan.battle import (
    HEURISTICS,
    build_battle_constraints,
    extract_battle_features,
    heuristic_policy,
    load_scenario,
    spawn_battle,
    step_battle,
)

FIXTURE = Path(__file__).parent / "fixtures" / "battle_golden.json"
SCENARIOS = ("m5v5", "m10v10", "m15v16", "w15v16", "w15v17", "zh10v10", "m80v82")
SEEDS = (0, 1)


def golden_cases():
    for scenario in SCENARIOS:
        for kind in HEURISTICS:
            for seed in SEEDS[:1] if scenario == "m80v82" else SEEDS:
                yield scenario, kind, seed


def battle_digest(scenario: str, kind: str, seed: int) -> str:
    state = spawn_battle(load_scenario(scenario, seed=seed))
    # rand_nc draws from its own fixed rng; the other rules ignore it.
    policy = heuristic_policy(kind, rng=np.random.default_rng(1000 + seed))
    digest = hashlib.sha256()

    def absorb(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())

    def snapshot():
        # Each unit's target as an index into the other team, -1 for none.
        target = state.target.copy()
        ours = target[:state.n]
        ours[ours >= 0] -= state.n
        absorb(
            np.asarray(state.pos, dtype=np.float64),
            np.asarray(state.vel, dtype=np.float64),
            np.asarray(state.health, dtype=np.float64),
            np.asarray(state.cooldown, dtype=np.int64),
            target,
            np.asarray(state.opp_waypoint, dtype=np.float64),
        )
        digest.update(repr(state.rng.bit_generator.state).encode())
        agents, tasks, extras = extract_battle_features(state)
        cons = build_battle_constraints(state)
        absorb(agents, tasks, extras, cons.mu, cons.u)

    snapshot()
    while not state.done:
        decision = policy(state)
        reward, _, _ = step_battle(state, decision)
        absorb(np.asarray(decision.target, dtype=np.int64), np.float64(reward))
        snapshot()
    digest.update(f"{state.frame}:{state.outcome}".encode())
    return digest.hexdigest()


def _key(scenario, kind, seed):
    return f"{scenario}/{kind}/{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in golden_cases())


@pytest.mark.parametrize("scenario,kind,seed", list(golden_cases()))
def test_golden_trace(golden, scenario, kind, seed):
    assert battle_digest(scenario, kind, seed) == golden[_key(scenario, kind, seed)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {_key(*case): battle_digest(*case) for case in golden_cases()}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {FIXTURE}")
