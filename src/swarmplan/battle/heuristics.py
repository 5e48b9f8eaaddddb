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
    return [j for j, u in enumerate(state.theirs) if u.alive]


def _positions(units):
    return np.array([u.pos for u in units], dtype=float)


def closest_heuristic(state: BattleState) -> Assignment:
    """Each unit independently picks its nearest living enemy."""
    target = np.full(len(state.ours), UNASSIGNED, dtype=int)
    living = np.array([e.alive for e in state.theirs])
    if living.any():
        dist = pair_distances(_positions(state.ours), _positions(state.theirs))
        # argmin keeps the first of equal distances: the lowest uid.
        nearest = np.where(living, dist, np.inf).argmin(axis=1)
        alive = np.array([u.alive for u in state.ours])
        target[alive] = nearest[alive]
    return Assignment(target)


def _weakest_order(state, enemies):
    """Enemies from most to least attractive: lowest health first,
    distance to our living centroid as tie-break, then id."""
    if not enemies:
        return []
    alive = [u for u in state.ours if u.alive]
    centroid = (np.mean([u.pos for u in alive], axis=0) if alive
                else np.zeros(2))
    units = [state.theirs[j] for j in enemies]
    dist = vec_norm(_positions(units) - centroid).tolist()
    keys = [(u.health, d, u.uid, j) for u, d, j in zip(units, dist, enemies)]
    return [key[-1] for key in sorted(keys)]


def weakest_closest(state: BattleState) -> Assignment:
    """Everyone piles onto the single weakest (then closest) enemy."""
    enemies = _living_enemy_ids(state)
    target = np.full(len(state.ours), UNASSIGNED, dtype=int)
    if enemies:
        j = _weakest_order(state, enemies)[0]
        for i, unit in enumerate(state.ours):
            if unit.alive:
                target[i] = j
    return Assignment(target)


def _fill_no_overkill(state, target, agents):
    """Assign `agents` (our indices) over weakest-first enemies, adding a
    unit only while the damage already booked against the enemy is
    strictly below its health. Mutates and returns `target`."""
    enemies = _weakest_order(state, _living_enemy_ids(state))
    booked = {j: 0.0 for j in enemies}
    # Damage already committed by units outside `agents` (persistence).
    for i, j in enumerate(target):
        if j != UNASSIGNED and j in booked:
            booked[j] += state.ours[i].spec.damage_per_attack
    # Booked damage only grows, so the first enemy still open for one
    # agent is the earliest candidate for the next.
    first_open = 0
    for i in agents:
        unit = state.ours[i]
        if not unit.alive:
            continue
        while (first_open < len(enemies)
               and booked[enemies[first_open]] >= state.theirs[enemies[first_open]].health):
            first_open += 1
        if first_open < len(enemies):
            j = enemies[first_open]
            target[i] = j
            booked[j] += unit.spec.damage_per_attack
    return target


def weakest_closest_no_overkill(state: BattleState) -> Assignment:
    target = np.full(len(state.ours), UNASSIGNED, dtype=int)
    return Assignment(_fill_no_overkill(state, target, range(len(state.ours))))


def _persistent(state, prev, drop_rule):
    """Keep previous targets except where drop_rule says to re-pick, then
    fill the dropped units with the no-overkill rule."""
    target = np.full(len(state.ours), UNASSIGNED, dtype=int)
    fresh = []
    for i, unit in enumerate(state.ours):
        j = int(prev[i]) if prev is not None else UNASSIGNED
        if (unit.alive and j != UNASSIGNED and state.theirs[j].alive
                and not drop_rule(i, j)):
            target[i] = j
        elif unit.alive:
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
    committed = {}
    for i, unit in enumerate(state.ours):
        j = int(prev[i])
        if unit.alive and j != UNASSIGNED and 0 <= j < len(state.theirs) \
                and state.theirs[j].alive:
            committed[j] = committed.get(j, 0.0) + unit.spec.damage_per_attack

    def overkills(i, j):
        others = committed.get(j, 0.0) - state.ours[i].spec.damage_per_attack
        return others >= state.theirs[j].health

    return _persistent(state, prev, overkills)


def random_no_change(state: BattleState, rng, prev=None) -> Assignment:
    """Random initial target per unit, kept until it dies."""
    enemies = _living_enemy_ids(state)
    target = np.full(len(state.ours), UNASSIGNED, dtype=int)
    for i, unit in enumerate(state.ours):
        if not unit.alive or not enemies:
            continue
        j = int(prev[i]) if prev is not None else UNASSIGNED
        if j != UNASSIGNED and state.theirs[j].alive:
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
