"""Scripted target-selection baselines for the battle simulator.

Six rules of increasing sophistication: closest, weakest-closest, and
no-overkill variants with different target-persistence behavior, plus a
random-but-persistent control. All ties break on unit id so every rule
is deterministic given the state (rand_nc additionally takes an rng).
"""
from __future__ import annotations

import numpy as np

from ..assign import Assignment, UNASSIGNED
from .sim import BattleError, BattleState, pair_distances, vec_norm

HEURISTICS = ("c", "wc", "wcnok", "wcnoknc", "wcnoks", "rand_nc")


def _living_enemy_ids(state):
    return np.flatnonzero(state.health[state.n:] > 0.0).tolist()


def closest_heuristic(state: BattleState) -> Assignment:
    """Each unit independently picks its nearest living enemy."""
    n, health, pos = state.n, state.health, state.pos
    target = np.full(n, UNASSIGNED, dtype=int)
    living = health[n:] > 0.0
    if living.any():
        dist = pair_distances(pos[:n], pos[n:])
        # argmin keeps the first of equal distances: the lowest uid.
        nearest = np.where(living, dist, np.inf).argmin(axis=1)
        alive = health[:n] > 0.0
        target[alive] = nearest[alive]
    return Assignment(target)


def _weakest_order(state, enemies):
    """Enemies from most to least attractive: lowest health first,
    distance to our living centroid as tie-break, then id."""
    if not enemies:
        return []
    n = state.n
    alive = state.health[:n] > 0.0
    centroid = np.mean(state.pos[:n][alive], axis=0) if alive.any() else np.zeros(2)
    rows = n + np.array(enemies)
    dist = vec_norm(state.pos[rows] - centroid).tolist()
    return [j for _, _, j in sorted(zip(state.health[rows].tolist(), dist, enemies))]


def weakest_closest(state: BattleState) -> Assignment:
    """Everyone piles onto the single weakest (then closest) enemy."""
    enemies = _living_enemy_ids(state)
    target = np.full(state.n, UNASSIGNED, dtype=int)
    if enemies:
        target[state.health[:state.n] > 0.0] = _weakest_order(state, enemies)[0]
    return Assignment(target)


def _fill_no_overkill(state, target, agents):
    """Assign `agents` (our indices) over weakest-first enemies, adding a
    unit only while the damage already booked against the enemy is
    strictly below its health. Mutates and returns `target`."""
    n = state.n
    damage, alive = state.damage[:n].tolist(), (state.health[:n] > 0.0).tolist()
    health = state.health[n:].tolist()
    enemies = _weakest_order(state, _living_enemy_ids(state))
    booked = {j: 0.0 for j in enemies}
    # Damage already committed by units outside `agents` (persistence).
    for i, j in enumerate(target):
        if j != UNASSIGNED and j in booked:
            booked[j] += damage[i]
    # Booked damage only grows, so the first enemy still open for one
    # agent is the earliest candidate for the next.
    first_open = 0
    for i in agents:
        if not alive[i]:
            continue
        while (first_open < len(enemies)
               and booked[enemies[first_open]] >= health[enemies[first_open]]):
            first_open += 1
        if first_open < len(enemies):
            j = enemies[first_open]
            target[i] = j
            booked[j] += damage[i]
    return target


def weakest_closest_no_overkill(state: BattleState) -> Assignment:
    target = np.full(state.n, UNASSIGNED, dtype=int)
    return Assignment(_fill_no_overkill(state, target, range(state.n)))


def _persistent(state, prev, drop_rule):
    """Keep previous targets except where drop_rule says to re-pick, then
    fill the dropped units with the no-overkill rule."""
    n = state.n
    alive = (state.health > 0.0).tolist()
    target = np.full(n, UNASSIGNED, dtype=int)
    fresh = []
    for i in range(n):
        j = int(prev[i]) if prev is not None else UNASSIGNED
        if alive[i] and j != UNASSIGNED and alive[n + j] and not drop_rule(i, j):
            target[i] = j
        elif alive[i]:
            fresh.append(i)
    return Assignment(_fill_no_overkill(state, target, fresh))


def weakest_closest_no_overkill_no_change(state: BattleState,
                                          prev=None) -> Assignment:
    """wcnok, but a unit keeps its target until the target dies."""
    return _persistent(state, prev, lambda i, j: False)


def weakest_closest_no_overkill_smart(state: BattleState, prev=None) -> Assignment:
    """wcnoknc, but a unit abandons its target when keeping it would
    overkill: the damage of the other units sticking to the same target
    already covers its health."""
    if prev is None:
        return weakest_closest_no_overkill(state)
    n, m = state.n, len(state.health) - state.n
    damage, health = state.damage[:n].tolist(), state.health.tolist()
    committed = {}
    for i in range(n):
        j = int(prev[i])
        if health[i] > 0.0 and 0 <= j < m and health[n + j] > 0.0:
            committed[j] = committed.get(j, 0.0) + damage[i]

    def overkills(i, j):
        return committed.get(j, 0.0) - damage[i] >= health[n + j]

    return _persistent(state, prev, overkills)


def random_no_change(state: BattleState, rng, prev=None) -> Assignment:
    """Random initial target per unit, kept until it dies."""
    enemies = _living_enemy_ids(state)
    n, alive = state.n, (state.health > 0.0).tolist()
    target = np.full(n, UNASSIGNED, dtype=int)
    for i in range(n):
        if not alive[i] or not enemies:
            continue
        j = int(prev[i]) if prev is not None else UNASSIGNED
        if j != UNASSIGNED and alive[n + j]:
            target[i] = j
        else:
            target[i] = enemies[int(rng.integers(len(enemies)))]
    return Assignment(target)


def heuristic_policy(kind: str, rng=None):
    """Returns a stateful policy fn(state) -> Assignment for `kind`."""
    if kind not in HEURISTICS:
        raise BattleError(f"unknown heuristic {kind!r}; pick one of {HEURISTICS}")
    prev = {"t": None}

    def policy(state: BattleState) -> Assignment:
        if kind == "c":
            out = closest_heuristic(state)
        elif kind == "wc":
            out = weakest_closest(state)
        elif kind == "wcnok":
            out = weakest_closest_no_overkill(state)
        elif kind == "wcnoknc":
            out = weakest_closest_no_overkill_no_change(state, prev["t"])
        elif kind == "wcnoks":
            out = weakest_closest_no_overkill_smart(state, prev["t"])
        else:
            if rng is None:
                raise BattleError("rand_nc needs an rng")
            out = random_no_change(state, rng, prev["t"])
        prev["t"] = out.target.copy()
        return out

    return policy
