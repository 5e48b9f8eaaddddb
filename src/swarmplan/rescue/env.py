"""Search-and-rescue grid world.

Ambulances and victims live on one fixed grid of GRID_SIZE x GRID_SIZE
(16x16) integer cells. Each step, every assigned ambulance takes one
8-connected move toward its target victim's cell; any victim sharing a
cell with any ambulance afterwards is picked up, whether or not it was
the target. Reward is a flat -0.01 per step, so episode return only
encodes episode length. A `GridState` holds W episodes ("lanes") of
equal (n, m) on a leading lane axis; one is W = 1.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from ..assign import ConstraintSet, UNASSIGNED

GRID_SIZE = 16
ID_WEIGHTS = np.array([GRID_SIZE, 1])  # cells @ ID_WEIGHTS = cell ids
EXTENT = GRID_SIZE - 1  # cells / EXTENT = features
STEP_REWARD = -0.01


class RescueError(ValueError):
    pass


@dataclass
class RescueConfig:
    n: int = 2
    m: int = 4
    seed: int = 0
    max_steps: int = 400

    def __post_init__(self):
        for name in ("n", "m", "seed", "max_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise RescueError(f"{name} must be an integer, got {value!r}")
        if min(self.n, self.m, self.max_steps) < 1:
            raise RescueError("n, m and max_steps must be >= 1")
        if self.seed < 0:
            raise RescueError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class GridState:
    """W lanes of equal (n, m): ambulance cells (W, n, 2), victim cells
    (W, m, 2), picked flags (W, m) and step counts (W,). The victims'
    cell ids x * GRID_SIZE + y, which `step` compares, and their
    features, which `extract_features` reads, are fixed here."""

    ambulances: np.ndarray
    victims: np.ndarray
    picked: np.ndarray
    step_count: np.ndarray

    def __post_init__(self):
        self.ambulances, self.victims, self.step_count = (
            np.array(a, dtype=np.int64) for a in (self.ambulances, self.victims, self.step_count))
        self.picked = np.array(self.picked, dtype=bool)
        for kind, cells in (("ambulance", self.ambulances), ("victim", self.victims)):
            _check_on_grid(kind, cells)
        self.victim_ids, self.victim_feats = _fixed_victim_values(self.victims)

    @classmethod
    def empty(cls, lanes: int, n: int, m: int) -> "GridState":
        """`lanes` lanes of (n, m) with every entity on cell (0, 0), to be
        filled by `respawn`."""
        return cls(np.zeros((lanes, n, 2)), np.zeros((lanes, m, 2)),
                   np.zeros((lanes, m), dtype=bool), np.zeros(lanes))

    @property
    def size(self) -> tuple:
        """The (n, m) of every lane."""
        return self.ambulances.shape[1], self.victims.shape[1]

    @property
    def all_picked(self) -> bool:
        """Every victim of every lane is picked up."""
        return bool(self.picked.all())

    def cells(self):
        """(ambulances, victims, picked) of a one-lane state, as lists."""
        if len(self.step_count) != 1:
            raise RescueError("expected a one-lane state")
        return self.ambulances[0].tolist(), self.victims[0].tolist(), self.picked[0].tolist()

    def respawn(self, lanes, seeds) -> "GridState":
        """Start a fresh episode in place on each lane of `lanes` (an index
        array), drawn as `spawn` draws from the seed at the same place of
        `seeds`; returns self."""
        n, m = self.size
        cells = np.array([_draw_cells(n, m, seed) for seed in seeds])
        _check_on_grid("entity", cells)
        self.ambulances[lanes], self.victims[lanes] = cells[:, :n], cells[:, n:]
        self.picked[lanes] = False
        self.step_count[lanes] = 0
        self.victim_ids[lanes], self.victim_feats[lanes] = _fixed_victim_values(cells[:, n:])
        return self


def stack_lanes(parts) -> GridState:
    """One GridState holding lane k of `state` for each (state, k) in `parts`."""
    return GridState(*(
        np.concatenate([getattr(state, name)[k:k + 1] for state, k in parts])
        for name in ("ambulances", "victims", "picked", "step_count")))


def chebyshev(a, b) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _check_on_grid(kind: str, cells: np.ndarray):
    if cells.size and (cells.min() < 0 or cells.max() >= GRID_SIZE):
        raise RescueError(f"{kind} off grid")


def _fixed_victim_values(victims: np.ndarray) -> tuple:
    """The cell ids and the features of victim cells (..., 2)."""
    return victims @ ID_WEIGHTS, victims / EXTENT


def _draw_cells(n: int, m: int, seed) -> np.ndarray:
    """The (n + m, 2) cells of one spawn from `seed`, ambulances first."""
    return np.random.default_rng(seed).integers(0, GRID_SIZE, size=(n + m, 2))


def spawn(config: RescueConfig) -> GridState:
    """One lane; all entities i.i.d. uniform over the grid cells; overlaps allowed."""
    cells = _draw_cells(config.n, config.m, config.seed)
    return GridState(cells[None, :config.n], cells[None, config.n:],
                     np.zeros((1, config.m), dtype=bool), np.zeros(1))


def step(state: GridState, targets, max_steps: int = 400, lanes=None):
    """Advance lanes of `state` one step in place.

    `lanes` indexes the lanes to step (all by default); `targets` holds
    their (L, n) victim indices or UNASSIGNED, which stays put. Targeting
    a picked-up victim is legal, to no effect. A victim is picked up when
    an ambulance is on its cell before or after the move: "before" only
    matters on a lane's first step, where it sweeps up the victims spawned
    under an ambulance at no travel cost. Every step pays STEP_REWARD.
    Returns whether each stepped lane's episode is over.
    """
    rows = slice(None) if lanes is None else lanes
    amb, picked, steps = state.ambulances[rows], state.picked[rows], state.step_count[rows]
    targets = np.asarray(targets)
    if targets.shape != amb.shape[:2]:
        raise RescueError(f"targets of shape {targets.shape} for ambulances {amb.shape[:2]}")
    m = state.victims.shape[1]
    if targets.size and (targets.min() < UNASSIGNED or targets.max() >= m):
        raise RescueError(f"a target is outside [{UNASSIGNED}, {m})")
    goal = state.victims[rows][np.arange(len(targets))[:, None], targets]
    move = np.sign(goal - amb)
    move[targets == UNASSIGNED] = 0
    to = amb + move
    occupied = np.concatenate([amb, to], axis=1) @ ID_WEIGHTS
    now = picked | (state.victim_ids[rows][:, :, None] == occupied[:, None]).any(axis=2)
    steps = steps + 1
    state.ambulances[rows], state.picked[rows], state.step_count[rows] = to, now, steps
    return now.all(axis=1) | (steps >= max_steps)


def build_constraints(state: GridState, lane: int = 0) -> ConstraintSet:
    """Lane `lane`'s polytope: unit demand everywhere, with `capacities`."""
    return ConstraintSet(np.ones((state.ambulances.shape[1], state.victims.shape[1])),
                         capacities(state, lane))


def capacities(state: GridState, lanes=None) -> np.ndarray:
    """Victim capacities, 1 while open and 0 once picked: (L, m), or (m,)
    for one lane index. `lanes` as in `step`."""
    return 1.0 - state.picked[slice(None) if lanes is None else lanes]


def extract_features(state: GridState, lanes=None):
    """Agent features (x, y)/extent, (L, n, 2); task features add the
    picked flag, (L, m, 3). `lanes` as in `step`."""
    rows = slice(None) if lanes is None else lanes
    return state.ambulances[rows] / EXTENT, np.concatenate(
        [state.victim_feats[rows], state.picked[rows][..., None]], axis=2)


def run_episode(config: RescueConfig, policy, seed=None):
    """Roll one episode; policy: one-lane GridState -> Assignment.

    Returns (steps, total_reward, capped), where capped means the step
    cap ended the episode with a victim still open.
    """
    if seed is not None:
        config = replace(config, seed=seed)
    state = spawn(config)
    total = 0.0
    done = False
    while not done:
        done = step(state, policy(state).target[None], config.max_steps)[0]
        total += STEP_REWARD
    return int(state.step_count[0]), total, not state.all_picked
