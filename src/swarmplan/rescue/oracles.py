"""Greedy baseline and exact multi-vehicle-routing topline for rescue.

The baseline sends every ambulance to its Chebyshev-nearest open victim.
The topline solves the rescue instance exactly: a subset-path dynamic
program gives the optimal open tour over every victim subset from every
starting victim, and branch-and-bound over victim-to-ambulance labelings
finds the partition minimizing the slowest ambulance's route time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..assign import UNASSIGNED, Assignment
from .env import GridState, RescueError, chebyshev

MVR_MAX_AGENTS = 8
MVR_MAX_TASKS = 15


def closest_baseline(state: GridState) -> Assignment:
    """Each ambulance targets the nearest open victim (lowest index on ties)."""
    ambulances, victims, picked = (np.array(cells) for cells in state.cells())
    if picked.all():
        return Assignment(np.full(len(ambulances), UNASSIGNED))
    dist = np.abs(ambulances[:, None] - victims).max(axis=2)
    dist[:, picked] = np.iinfo(dist.dtype).max
    return Assignment(dist.argmin(axis=1))


@dataclass
class SubsetPathTable:
    """table[mask, v] = shortest tour visiting the victims in mask starting at v.

    Entries for v not in mask are +inf; table[1 << v, v] = 0.
    """

    positions: list
    table: np.ndarray  # (2**m, m)

    @property
    def m(self) -> int:
        return len(self.positions)


@lru_cache(maxsize=None)
def _layer_fills(m: int):
    """Per popcount layer from 2 up, (v, masks of the layer holding v) for each v."""
    masks = np.arange(1, 1 << m)
    counts = np.array([bin(x).count("1") for x in masks])
    layers = [masks[counts == c] for c in range(2, m + 1)]
    return [[(v, layer[(layer >> v) & 1 == 1]) for v in range(m)] for layer in layers]


def dp_subset_paths(victim_positions) -> SubsetPathTable:
    """Held-Karp over victim subsets under the Chebyshev metric.

    Starting at v and visiting mask is the reverse of ending at v, and
    the metric is symmetric, so one anchored table serves both readings.
    Each (popcount layer, v) is filled by one gather-add-min.
    """
    positions = [tuple(p) for p in victim_positions]
    m = len(positions)
    if not 1 <= m <= MVR_MAX_TASKS:
        raise RescueError(f"victim count {m} outside [1, {MVR_MAX_TASKS}]")
    D = np.array([[chebyshev(a, b) for b in positions] for a in positions], dtype=float)
    table = np.full((1 << m, m), np.inf)
    for v in range(m):
        table[1 << v, v] = 0.0
    for layer in _layer_fills(m):
        for v, sel in layer:
            # leave v first, then optimally cover the rest
            table[sel, v] = (D[v] + table[sel ^ (1 << v)]).min(axis=1)
    return SubsetPathTable(positions, table)


def _route_order(paths: SubsetPathTable, mask: int, start: int):
    """Recover one optimal visiting order for (mask, start): each next victim
    is the first whose leg plus rest-of-tour equals the table entry (the
    entries are minima of exactly these integer-valued sums)."""
    D = paths.positions
    order = [start]
    v = start
    while mask != (1 << v):
        rest = mask ^ (1 << v)
        best = next(u for u in range(paths.m) if rest & (1 << u) and abs(
            chebyshev(D[v], D[u]) + paths.table[rest, u] - paths.table[mask, v]) < 1e-9)
        order.append(best)
        mask, v = rest, best
    return order


@dataclass
class RoutePlan:
    routes: list      # per-ambulance ordered victim index lists
    makespan: int


def _set_cost(amb_dists, paths, mask: int) -> float:
    """Optimal route time for one ambulance over the victims in mask."""
    return min((amb_dists[v] + paths.table[mask, v] for v in range(paths.m) if mask & (1 << v)),
               default=0.0)


def mvr_exact(state: GridState) -> RoutePlan:
    """Exact min-makespan victim partition + per-set optimal tours.

    Branch-and-bound over victim-to-ambulance labelings; the partial
    makespan is a valid bound because adding victims to a set never
    shortens its tour.
    """
    ambulances, victims, picked = state.cells()
    n = len(ambulances)
    open_idx = [j for j, p in enumerate(picked) if not p]
    if n > MVR_MAX_AGENTS or len(open_idx) > MVR_MAX_TASKS:
        raise RescueError(
            f"instance {n}x{len(open_idx)} beyond exact-solver budget "
            f"({MVR_MAX_AGENTS}x{MVR_MAX_TASKS})"
        )
    if not open_idx:
        return RoutePlan([[] for _ in range(n)], 0)
    positions = [victims[j] for j in open_idx]
    paths = dp_subset_paths(positions)
    amb_dists = [np.array([chebyshev(a, v) for v in positions], dtype=float)
                 for a in ambulances]
    m = len(open_idx)

    # Greedy incumbent: place each victim where it grows the makespan least.
    masks = [0] * n
    for v in range(m):
        best_i = min(range(n),
                     key=lambda i: _set_cost(amb_dists[i], paths, masks[i] | (1 << v)))
        masks[best_i] |= 1 << v
    incumbent = max(_set_cost(amb_dists[i], paths, masks[i]) for i in range(n))
    best_masks = list(masks)

    # Branch on victims farthest from the fleet first: their placement
    # constrains the makespan most, so bad branches die early.
    order = sorted(range(m),
                   key=lambda v: -min(d[v] for d in amb_dists))

    def descend(k: int, cur_masks, worst: float):
        nonlocal incumbent, best_masks
        if worst >= incumbent:
            return
        if k == m:
            incumbent = worst
            best_masks = list(cur_masks)
            return
        v = order[k]
        trials = []
        for i in range(n):
            c = _set_cost(amb_dists[i], paths, cur_masks[i] | (1 << v))
            if max(worst, c) < incumbent:
                trials.append((c, i))
        for c, i in sorted(trials):
            saved = cur_masks[i]
            cur_masks[i] |= 1 << v
            descend(k + 1, cur_masks, max(worst, c))
            cur_masks[i] = saved

    descend(0, [0] * n, 0.0)

    routes = []
    for i in range(n):
        mask = best_masks[i]
        if mask == 0:
            routes.append([])
            continue
        start = min((amb_dists[i][v] + paths.table[mask, v], v)
                    for v in range(m) if mask & (1 << v))[1]
        routes.append([open_idx[v] for v in _route_order(paths, mask, start)])
    makespan = max(_set_cost(amb_dists[i], paths, best_masks[i]) for i in range(n))
    return RoutePlan(routes, int(round(makespan)))


def plan_policy(plan: RoutePlan):
    """Policy executing a RoutePlan: each ambulance chases the first
    still-open victim on its route."""
    def policy(state: GridState) -> Assignment:
        ambulances, victims, picked = state.cells()
        target = np.full(len(ambulances), UNASSIGNED, dtype=int)
        for i, route in enumerate(plan.routes):
            for j in route:
                # A victim under the ambulance is collected by the
                # spawn-overlap sweep; chase the next one instead.
                if not picked[j] and victims[j] != ambulances[i]:
                    target[i] = j
                    break
        return Assignment(target)
    return policy
