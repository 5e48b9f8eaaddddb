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


def _unit_features(units, type_ids):
    """Feature rows of `units`, and their positions."""
    specs = [u.spec for u in units]
    pos = np.array([u.pos for u in units], dtype=float)
    health, max_health, attack_range, cooldown, cooldown_frames = np.array([
        [u.health for u in units],
        [s.max_health for s in specs],
        [s.attack_range for s in specs],
        [u.cooldown_remaining for u in units],
        [s.cooldown_frames for s in specs],
    ], dtype=float)
    table = np.column_stack([
        pos / ARENA,
        np.array([u.velocity for u in units], dtype=float),
        health / max_health,
        attack_range / ARENA,
        cooldown / cooldown_frames,
        np.array([[s.type_id == t for t in type_ids] for s in specs], dtype=float),
    ])
    return table, pos


def extract_battle_features(state: BattleState):
    """Returns (agent features (n,F), task features (m,F), pair extras
    (n,m,2)); dead units keep rows (health 0) so indices stay stable."""
    agents, our_pos = _unit_features(state.ours, state.type_ids)
    tasks, their_pos = _unit_features(state.theirs, state.type_ids)
    m = len(state.theirs)
    extras = np.empty((len(state.ours), m, 2))
    extras[..., 0] = np.asarray(state.prev_targets)[:, None] == np.arange(m)
    extras[..., 1] = pair_distances(our_pos, their_pos) / ARENA
    return agents, tasks, extras
