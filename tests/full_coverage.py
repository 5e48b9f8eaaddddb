"""The full-coverage battle tables of ROADMAP item 3, defined once.

A trained model's h and g on the m80v82 spawn states SEEDS, with g set
to 0 between tasks more than LOCAL_RADIUS apart. There 45-51 of 80
units get a target and Frank-Wolfe runs to its iteration cap, so its
linear subproblems jump between distant vertices. These are the tables
where an LP that warm-starts from the previous vertex and one that
starts cold differ most. `test_assign_golden.py` pins the `quad`
decisions on them and `scripts/decision_ab.py` times them.
"""
import numpy as np

from swarmplan.assign import ScoreTable
from swarmplan.battle import (
    build_battle_constraints,
    extract_battle_features,
    load_scenario,
    spawn_battle,
)
from swarmplan.battle.sim import pair_distances
from swarmplan.nets import score_pairs

SEEDS = range(101000, 101004)
LOCAL_RADIUS = 6.0  # task-task distance beyond which g is set to 0


def full_coverage_instance(seed: int, model):
    """The m80v82 spawn state `seed` scored by `model`, with g[j, l] = 0
    where tasks j and l are more than LOCAL_RADIUS apart, and its
    constraints."""
    state = spawn_battle(load_scenario("m80v82", seed=seed))
    agents, tasks, extras = extract_battle_features(state)
    scores = score_pairs(model, agents, tasks, pair_extras=extras)
    pos = state.pos[state.n:]
    far = pair_distances(pos, pos) > LOCAL_RADIUS
    return (ScoreTable(scores.h, np.where(far, 0.0, scores.g)),
            build_battle_constraints(state))
