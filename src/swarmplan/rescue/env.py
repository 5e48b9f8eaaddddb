"""Search-and-rescue grid world.

Ambulances and victims live on a 16x16 grid of integer cells. Each step,
every assigned ambulance takes one 8-connected move toward its target
victim's cell; any victim sharing a cell with any ambulance afterwards is
picked up, whether or not it was the target. Reward is a flat -0.01 per
step, so episode return only encodes episode length.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..assign import Assignment, ConstraintSet, UNASSIGNED

GRID_SIZE = 16
STEP_REWARD = -0.01


class RescueError(ValueError):
    pass


@dataclass
class RescueConfig:
    n: int = 2
    m: int = 4
    seed: int = 0
    max_steps: int = 400
    grid_size: int = GRID_SIZE

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise RescueError("need at least one ambulance and one victim")
        if self.grid_size < 1 or self.max_steps < 1:
            raise RescueError("grid_size and max_steps must be positive")


@dataclass
class GridState:
    grid_size: int
    ambulances: list  # [(x, y)]
    victims: list     # [(x, y, picked_up)]
    step_count: int = 0

    def __post_init__(self):
        for x, y in self.ambulances:
            if not (0 <= x < self.grid_size and 0 <= y < self.grid_size):
                raise RescueError(f"ambulance off grid: {(x, y)}")
        for x, y, _ in self.victims:
            if not (0 <= x < self.grid_size and 0 <= y < self.grid_size):
                raise RescueError(f"victim off grid: {(x, y)}")

    @property
    def n(self) -> int:
        return len(self.ambulances)

    @property
    def m(self) -> int:
        return len(self.victims)

    @property
    def all_picked(self) -> bool:
        return all(p for _, _, p in self.victims)


def chebyshev(a, b) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def spawn(config: RescueConfig) -> GridState:
    """All entities i.i.d. uniform over the grid cells; overlaps allowed."""
    rng = np.random.default_rng(config.seed)
    cells = rng.integers(0, config.grid_size, size=(config.n + config.m, 2))
    ambulances = [(int(x), int(y)) for x, y in cells[:config.n]]
    victims = [(int(x), int(y), False) for x, y in cells[config.n:]]
    return GridState(config.grid_size, ambulances, victims)


def low_level_move(agent_pos, target_pos):
    """One king-move toward the target: (sign(dx), sign(dy))."""
    return (int(np.sign(target_pos[0] - agent_pos[0])),
            int(np.sign(target_pos[1] - agent_pos[1])))


def step(state: GridState, assignment: Assignment, max_steps: int = 400):
    """Advance one step; returns (next_state, reward, done).

    Unassigned ambulances stay put. Targeting a picked-up victim is
    legal; the ambulance walks there to no effect.
    """
    if assignment.target.shape[0] != state.n:
        raise RescueError(
            f"assignment covers {assignment.target.shape[0]} agents, state has {state.n}"
        )
    # A victim spawned on an ambulance's cell is already reached; sweep
    # it up on the first step so it costs no travel time.
    victims = state.victims
    if state.step_count == 0:
        start_cells = set(state.ambulances)
        victims = [(x, y, p or (x, y) in start_cells) for x, y, p in victims]
    ambulances = []
    for i, pos in enumerate(state.ambulances):
        j = int(assignment.target[i])
        if j == UNASSIGNED:
            ambulances.append(pos)
            continue
        if not 0 <= j < state.m:
            raise RescueError(f"ambulance {i} assigned to invalid victim {j}")
        vx, vy, _ = state.victims[j]
        dx, dy = low_level_move(pos, (vx, vy))
        ambulances.append((pos[0] + dx, pos[1] + dy))
    occupied = set(ambulances)
    victims = [(x, y, p or (x, y) in occupied) for x, y, p in victims]
    next_state = GridState(state.grid_size, ambulances, victims, state.step_count + 1)
    done = next_state.all_picked or next_state.step_count >= max_steps
    return next_state, STEP_REWARD, done


def build_constraints(state: GridState) -> ConstraintSet:
    """Unit demand everywhere; capacity 1 per open victim, 0 once picked."""
    mu = np.ones((state.n, state.m))
    u = np.array([0.0 if p else 1.0 for _, _, p in state.victims])
    return ConstraintSet(mu, u)


def extract_features(state: GridState):
    """Agent features (x, y)/extent; task features add the picked flag."""
    extent = state.grid_size - 1
    agents = np.array([[x / extent, y / extent] for x, y in state.ambulances])
    tasks = np.array([[x / extent, y / extent, float(p)] for x, y, p in state.victims])
    return agents, tasks


def run_episode(config: RescueConfig, policy, seed=None):
    """Roll one episode; policy: GridState -> Assignment.

    Returns (steps, total_reward, capped), where capped means the step
    cap ended the episode with a victim still open.
    """
    if seed is not None:
        config = replace(config, seed=seed)
    state = spawn(config)
    total = 0.0
    done = False
    while not done:
        state, reward, done = step(state, policy(state), config.max_steps)
        total += reward
    return state.step_count, total, not state.all_picked
