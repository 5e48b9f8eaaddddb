"""Feature extraction for the battle scoring networks.

Per-unit features (8 + one-hot width - 1 values): position, velocity,
normalized health, weapon range, cooldown fraction, and a one-hot of
the unit type. Pair extras carry the previous-target flag and the
normalized distance, which the pairwise net cannot reconstruct from
independent unit features.
"""
from __future__ import annotations

import numpy as np

from .sim import ARENA, BattleConfig, BattleState, pair_distances

BASE_FEATURES = 7  # x, y, vx, vy, health, range, cooldown fraction


def feature_dim(config: BattleConfig) -> int:
    """Feature width of a scenario: one one-hot slot per distinct unit type."""
    return BASE_FEATURES + len({s.type_id for s in config.ours + config.theirs})


def extract_battle_features(state: BattleState):
    """Returns (agent features (n,F), task features (m,F), pair extras
    (n,m,2)); dead units keep rows (health 0) so indices stay stable."""
    n = state.n
    table = np.column_stack([
        state.pos / ARENA,
        state.vel,
        state.health / state.max_health,
        state.range / ARENA,
        state.cooldown / state.cooldown_frames,
        state.one_hot,
    ])
    m = len(table) - n
    extras = np.empty((n, m, 2))
    extras[..., 0] = state.target[:n, None] == n + np.arange(m)
    extras[..., 1] = pair_distances(state.pos[:n], state.pos[n:]) / ARENA
    return table[:n], table[n:], extras
