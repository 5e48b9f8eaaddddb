"""Golden targets for the exact unit-demand matching.

`fixtures/matching_golden.json` holds the targets of

  * 300 random stacks of 1-4 lanes, matched in one pass by the LP
    procedure's `infer_stack`, with mu = 1 and u in {0, 1, 2, 3}:
    a third with n <= 8 and m <= 6, the rest with n up to 32 and m up
    to 60; the odd seeds draw half-integer scores, so tasks tie with
    each other and with staying idle;
  * the noisy h tables along four seeded 8x15 rescue episodes scored by
    the seed-0 random model, each step's targets driving the next step.

Targets are integers, so a change of the augmenting paths or of their
tie rule shows as a changed entry. A refactor of the matching must pass
this fixture unmodified. Regenerate it (only for a deliberate behaviour
change) with

    PYTHONPATH=src python tests/test_matching_golden.py
"""
import json
from pathlib import Path

import numpy as np
import pytest

from swarmplan.assign import ConstraintSet, ScoreTable, infer_stack, matching_assign
from test_assign_matching import rescue_observations

FIXTURE = Path(__file__).parent / "fixtures" / "matching_golden.json"
RANDOM_STACKS = 300
RESCUE = dict(n=8, m=15, episodes=4, steps=60)
RESCUE_KEY = "rescue-8x15"


def random_stack(seed: int):
    """(h of shape (L, n, m), L unit-demand ConstraintSets)."""
    rng = np.random.default_rng(seed)
    lanes = 1 if seed % 5 == 0 else int(rng.integers(2, 5))
    if seed % 3 == 0:
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    else:
        n, m = int(rng.integers(1, 33)), int(rng.integers(1, 61))
    if seed % 2:
        h = rng.integers(-2, 4, size=(lanes, n, m)) / 2.0
    else:
        h = rng.normal(size=(lanes, n, m))
    u = rng.integers(0, 4, size=(lanes, m)).astype(float)
    return h, [ConstraintSet(np.ones((n, m)), u[k]) for k in range(lanes)]


def stack_targets(h, cons) -> list:
    """The LP procedure's targets of every lane of a stack."""
    return infer_stack("lp", h, None, np.array([lane.mu for lane in cons]),
                       np.array([lane.u for lane in cons])).tolist()


def rescue_targets() -> list:
    """The targets of every step of the rescue episodes, in order."""
    return [matching_assign(scores, cons).target.tolist()
            for scores, cons in rescue_observations(**RESCUE)]


def golden_table() -> dict:
    table = {f"random/{seed}": stack_targets(*random_stack(seed))
             for seed in range(RANDOM_STACKS)}
    table[RESCUE_KEY] = rescue_targets()
    return table


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted([f"random/{seed}" for seed in range(RANDOM_STACKS)]
                                    + [RESCUE_KEY])


@pytest.mark.parametrize("seed", range(RANDOM_STACKS))
def test_random_stack(golden, seed):
    h, cons = random_stack(seed)
    assert stack_targets(h, cons) == golden[f"random/{seed}"]
    lanes = [matching_assign(ScoreTable(h[k]), lane).target.tolist()
             for k, lane in enumerate(cons)]
    assert lanes == golden[f"random/{seed}"]


def test_rescue_episodes(golden):
    steps = rescue_targets()
    assert len(steps) >= 4 * 10
    assert steps == golden[RESCUE_KEY]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    table = golden_table()
    FIXTURE.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                          for k, v in sorted(table.items())) + "\n}\n")
    print(f"wrote {len(table)} entries to {FIXTURE}")
