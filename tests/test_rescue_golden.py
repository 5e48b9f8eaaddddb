"""Golden rescue transitions: seeded episodes under random assignments.

`fixtures/rescue_golden.json` holds, for episodes at 2x4, 5x10 and 8x15,
what `run_episode` shows its policy before every step: the ambulance and
victim cells, the picked flags (as the task features report them), the
agent and task features, the capacities u of `build_constraints`, the
closest-victim baseline's targets and the random targets the policy
plays. Each episode also records `run_episode`'s (steps, return, capped)
and the exact topline's makespan and routes on its spawn state.

Each ambulance plays the baseline's target with probability 0.6, else a
target drawn uniformly from UNASSIGNED and every victim index, so picked
victims are targeted too. The seeds include victims spawned on
an ambulance's cell (swept up by the first step), and some episodes end
at a small `max_steps` with victims still open.

Regenerate the fixture (only for a deliberate behaviour change) with

    PYTHONPATH=src python tests/test_rescue_golden.py
"""
import json
from pathlib import Path

import numpy as np
import pytest

from swarmplan.assign import Assignment
from swarmplan.rescue import (
    RescueConfig,
    build_constraints,
    closest_baseline,
    extract_features,
    mvr_exact,
    run_episode,
    spawn,
)

FIXTURE = Path(__file__).parent / "fixtures" / "rescue_golden.json"
# (n, m, max_steps, episodes)
SIZES = ((2, 4, 400, 4), (5, 10, 400, 3), (8, 15, 12, 3))
POLICY_SEED = 77


def _rows(array, count):
    """`array` as `count` rows of numbers (one row per entity)."""
    return np.reshape(np.asarray(array, dtype=float), (count, -1))


def replay(n: int, m: int, max_steps: int, seed: int) -> dict:
    """One episode under seeded random targets, as plain lists."""
    rng = np.random.default_rng(POLICY_SEED + seed)
    steps = []

    def policy(state):
        agents, tasks = extract_features(state)
        agents, tasks = _rows(agents, n), _rows(tasks, m)
        closest = np.asarray(closest_baseline(state).target)
        target = np.where(rng.random(n) < 0.6, closest, rng.integers(-1, m, size=n))
        steps.append({
            "ambulances": _rows(state.ambulances, n)[:, :2].astype(int).tolist(),
            "victims": _rows(state.victims, m)[:, :2].astype(int).tolist(),
            "picked": tasks[:, 2].astype(bool).tolist(),
            "agent_feats": agents.tolist(),
            "task_feats": tasks.tolist(),
            "u": np.asarray(build_constraints(state).u, dtype=float).tolist(),
            "closest": closest.tolist(),
            "target": target.tolist(),
        })
        return Assignment(target)

    config = RescueConfig(n, m, seed=0, max_steps=max_steps)
    length, total, capped = run_episode(config, policy, seed=seed)
    plan = mvr_exact(spawn(RescueConfig(n, m, seed=seed)))
    return {"n": n, "m": m, "max_steps": max_steps, "seed": seed,
            "length": length, "return": total, "capped": capped,
            "makespan": plan.makespan,
            "routes": [[int(j) for j in route] for route in plan.routes],
            "steps": steps}


def _spawn_overlap(n: int, m: int, seed: int) -> bool:
    """A victim spawns on an ambulance's cell."""
    cells = np.random.default_rng(seed).integers(0, 16, size=(n + m, 2))
    return bool(set(map(tuple, cells[n:].tolist())) & set(map(tuple, cells[:n].tolist())))


def choose_seeds(n: int, m: int, episodes: int) -> list:
    """The first seed with a spawn overlap, then the next ones in order."""
    overlap = next(s for s in range(10_000) if _spawn_overlap(n, m, s))
    return [overlap] + [s for s in range(episodes) if s != overlap][:episodes - 1]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def _cases(golden):
    return [(case["n"], case["m"], case["max_steps"], case["seed"])
            for case in golden["episodes"]]


def test_fixture_covers_the_rules(golden):
    episodes = golden["episodes"]
    assert {(e["n"], e["m"]) for e in episodes} == {(n, m) for n, m, _, _ in SIZES}
    targets = [(t, s["picked"]) for e in episodes for s in e["steps"]
               for t in s["target"]]
    assert any(t == -1 for t, _ in targets)
    assert any(t >= 0 and picked[t] for t, picked in targets)
    assert any(e["capped"] for e in episodes) and not all(e["capped"] for e in episodes)
    overlaps = [e for e in episodes
                if set(map(tuple, e["steps"][0]["victims"]))
                & set(map(tuple, e["steps"][0]["ambulances"]))]
    assert {(e["n"], e["m"]) for e in overlaps} == {(n, m) for n, m, _, _ in SIZES}


@pytest.mark.parametrize("index", range(sum(e for *_, e in SIZES)))
def test_episode_matches_golden(golden, index):
    n, m, max_steps, seed = _cases(golden)[index]
    assert replay(n, m, max_steps, seed) == golden["episodes"][index]


if __name__ == "__main__":
    episodes = [replay(n, m, max_steps, seed)
                for n, m, max_steps, count in SIZES
                for seed in choose_seeds(n, m, count)]
    FIXTURE.write_text(json.dumps({"episodes": episodes}, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}")
