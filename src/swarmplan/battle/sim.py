"""Simplified real-time combat simulator.

Two teams of units fight on a continuous 100x100 arena. Our side picks a
target per unit every `ASSIGNMENT_PERIOD` frames; the opponent follows a
scripted attack-move toward our centroid refreshed every
`OPPONENT_ORDER_PERIOD` frames. Attacks miss with probability
`MISS_PROBABILITY`, so battles are stochastic but bit-reproducible under
a seed; a battle undecided after `FRAME_CAP` frames is a draw. Reward
per assignment window is the normalized health swing
(our delta + enemy damage taken) / our initial total health.

`BattleState` holds both teams as arrays, the only state of record, and
`step_battle` runs on them directly. Units act in row order, separation
pushes run pair by pair, and all distances go through `vec_norm` or its
scalar twin `_norm`, so the result is the same, bit for bit, as stepping
the units one at a time. A `Unit` is a read-only view of one row.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARENA = 100.0
ASSIGNMENT_PERIOD = 6
CONTACT_EPS = 0.3
FRAME_CAP = 2000
MISS_PROBABILITY = 1.0 / 256.0
OPPONENT_ORDER_PERIOD = 60
TEAM_OURS = 0
TEAM_THEIRS = 1


class BattleError(ValueError):
    pass


@dataclass(frozen=True)
class UnitSpec:
    name: str
    max_health: float
    damage_per_attack: float
    cooldown_frames: int
    attack_range: float
    speed: float
    is_flying: bool
    type_id: int
    radius: float = 0.75

    def __post_init__(self):
        if min(self.max_health, self.damage_per_attack, self.cooldown_frames,
               self.attack_range, self.speed, self.radius) <= 0:
            raise BattleError(f"spec {self.name}: all numeric fields must be positive")


class Unit:
    """One row of a `BattleState`, read only; it holds no state of its own."""

    __slots__ = ("_state", "_row")

    def __init__(self, state: BattleState, row: int):
        self._state, self._row = state, row

    @property
    def spec(self) -> UnitSpec:
        return self._state.specs[self._row]

    @property
    def health(self) -> float:
        return float(self._state.health[self._row])

    @property
    def alive(self) -> bool:
        return self.health > 0.0


@dataclass
class BattleConfig:
    ours: list          # list of UnitSpec
    theirs: list
    seed: int = 0

    def __post_init__(self):
        if not self.ours or not self.theirs:
            raise BattleError("both teams need at least one unit")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise BattleError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise BattleError(f"seed must be >= 0, got {self.seed}")


OUR_ANCHOR = np.array([25.0, 50.0])
THEIR_ANCHOR = np.array([75.0, 50.0])
SPAWN_STD = np.array([4.0, 10.0])  # Y-spread > X-spread


def vec_norm(delta) -> np.ndarray:
    """Euclidean length along the last axis.

    Every distance in the battle package goes through here, for single
    vectors and for whole pair matrices alike, or through `_norm`, its
    scalar twin for plain floats. Its result equals `np.linalg.norm` of
    each vector bit for bit, which `np.hypot` and `sqrt(x*x + y*y)` do
    not, so traces do not depend on how distances are batched
    (`tests/test_battle_arrays.py` pins both: against `np.linalg.norm`,
    and `_norm` against it in `test_norm_matches_vec_norm_bitwise`)."""
    return np.sqrt(np.vecdot(delta, delta))


# Dekker's split: a double times 2**27 + 1 splits into 26 + 27 bit halves.
_SPLIT = 134217729.0


def _norm(dx: float, dy: float) -> float:
    """`vec_norm(np.array([dx, dy]))` on plain floats, without a numpy call.

    numpy's dot of a 2-vector rounds once, as fma(dy, dy, dx*dx) does.
    Here dy*dy = h + l exactly by Dekker's product (Dekker 1971), and
    `math.fsum` rounds dx*dx + h + l once. That holds while the squares
    stay in the normal range or underflow whole: the two agree bit for
    bit on components up to about 1e153, subnormals and zeros included,
    except those of about 1e-159 to 1e-152, where l underflows. Above
    1e153 the split overflows and `fsum` raises `OverflowError`."""
    t = _SPLIT * dy
    hi = t - (t - dy)
    lo = dy - hi
    h = dy * dy
    return math.sqrt(math.fsum((dx * dx, h, ((hi * hi - h) + 2.0 * hi * lo) + lo * lo)))


def pair_distances(p, q) -> np.ndarray:
    """(len(p), len(q)) matrix of vec_norm(p[i] - q[j]) for (k, 2) position arrays."""
    delta = np.empty((len(p), len(q), 2))
    np.subtract(p[:, None, 0], q[None, :, 0], out=delta[..., 0])
    np.subtract(p[:, None, 1], q[None, :, 1], out=delta[..., 1])
    return vec_norm(delta)


class BattleState:
    """Both teams as arrays, the only state of record.

    Row k < n is our unit k and row n + j their unit j. `pos`, `vel`,
    `health`, `cooldown` and `target` (a row index, -1 for none) change
    as the battle runs; the spec columns (`radius`, `range`, `speed`,
    `ground`, `damage`, `cooldown_frames`, `max_health` and the type
    one-hot `one_hot`, over the sorted `type_ids`) are set at spawn."""

    def __init__(self, config: BattleConfig, pos: np.ndarray, rng: np.random.Generator):
        self.config, self.rng = config, rng
        self.specs = specs = config.ours + config.theirs
        self.n = len(config.ours)
        self.radius, self.range, self.speed, self.damage, self.max_health = np.array(
            [[s.radius for s in specs], [s.attack_range for s in specs],
             [s.speed for s in specs], [s.damage_per_attack for s in specs],
             [s.max_health for s in specs]], dtype=float)
        self.ground = np.array([not s.is_flying for s in specs])
        self.cooldown_frames = np.array([s.cooldown_frames for s in specs], dtype=np.int64)
        self.type_ids = sorted({s.type_id for s in specs})
        self.one_hot = np.array([[s.type_id == t for t in self.type_ids] for s in specs],
                                dtype=float)
        self.pos = pos
        self.vel = np.zeros_like(pos)
        self.health = self.max_health.copy()
        self.cooldown = np.zeros(len(specs), dtype=np.int64)
        self.target = np.full(len(specs), -1, dtype=np.int64)
        self.frame = 0
        self.our_health0 = self.team_health(TEAM_OURS)
        self.opp_waypoint = OUR_ANCHOR.copy()
        self.outcome: str | None = None

    # Built on first use: a spawned state makes no view, and so no
    # reference cycle, unless a caller asks for one.
    @functools.cached_property
    def ours(self) -> list:
        return [Unit(self, k) for k in range(self.n)]

    @functools.cached_property
    def theirs(self) -> list:
        return [Unit(self, k) for k in range(self.n, len(self.specs))]

    @property
    def done(self) -> bool:
        return self.outcome is not None

    def team_health(self, team: int) -> float:
        # A Python sum in row order: np.sum would round pairwise.
        rows = self.health[:self.n] if team == TEAM_OURS else self.health[self.n:]
        return sum(rows.tolist())

    def _acquire_opponent_targets(self):
        """Opponent target acquisition, run once per assignment window so
        both sides act on the same decision cadence: each opponent unit
        locks onto the nearest living enemy within reach, if any; ties go
        to the lowest index, which is the lowest uid."""
        n = self.n
        dist = pair_distances(self.pos[:n], self.pos[n:]).T
        reach = np.maximum(self.range[n:, None],
                           self.radius[n:, None] + self.radius[None, :n] + CONTACT_EPS)
        ok = (dist <= reach) & (self.health[None, :n] > 0.0)
        self.target[n:] = np.where(ok.any(axis=1), np.where(ok, dist, np.inf).argmin(axis=1), -1)

    def _team_turn(self, lo: int, hi: int, reach, waypoint):
        """Rows lo..hi-1 act as if one after another in row order.

        A unit with a live target in reach attacks when its cooldown is
        over, otherwise it holds; out of reach, it walks toward the target
        until in reach. Without a live target, our units (waypoint None)
        stand idle and opponents walk toward the waypoint. `reach` holds
        each row's reach to its window target."""
        H, P, V, CD = self.health, self.pos, self.vel, self.cooldown
        rows = lo + np.flatnonzero(H[lo:hi] > 0.0)
        V[rows] = 0.0
        tgt = self.target[rows]
        has = tgt >= 0
        has[has] = H[tgt[has]] > 0.0
        i, t = rows[has], tgt[has]
        delta = P[t] - P[i]
        dist = vec_norm(delta)
        reach = reach[i]
        near = dist <= reach
        # Attacks land one at a time in row order, so the miss rolls keep
        # their order in the rng stream and a target killed by an earlier
        # attacker is gone for every later unit.
        killed_by = np.full(len(H), len(H))
        fire = near & (CD[i] == 0)
        rng, miss_probability = self.rng, MISS_PROBABILITY
        for a, b in zip(i[fire].tolist(), t[fire].tolist()):
            if H[b] <= 0.0:
                continue
            if rng.random() >= miss_probability:
                H[b] = max(0.0, H[b] - self.damage[a])
                if H[b] <= 0.0:
                    killed_by[b] = a
            CD[a] = self.cooldown_frames[a]
        lost = killed_by[t] < i
        go = ~near & ~lost
        self._move(i[go], delta[go], dist[go], reach[go])
        if waypoint is not None:
            walk = np.concatenate((rows[~has], i[lost]))
            delta = waypoint - P[walk]
            dist = vec_norm(delta)
            moving = dist > 0.0
            self._move(walk[moving], delta[moving], dist[moving], 0.0)

    def _move(self, rows, delta, dist, stop_dist):
        if not len(rows):
            return
        step = np.minimum(self.speed[rows], dist - stop_dist)
        self.vel[rows] = delta / dist[:, None] * step[:, None]
        self.pos[rows] += self.vel[rows]

    def resolve_collisions(self):
        """The separation pass of living ground units, run after each frame."""
        ground = np.flatnonzero((self.health > 0.0) & self.ground)
        if len(ground) > 1:
            pos = self.pos[ground]
            _separate(pos, self.radius[ground])
            self.pos[ground] = pos


def spawn_battle(config: BattleConfig) -> BattleState:
    rng = np.random.default_rng(config.seed)
    max_range = max(s.attack_range for s in config.ours + config.theirs)
    # The teams face each other along X, so only X-spread can close the
    # gap between the anchors; spawns are clamped to 3 sigma.
    x_spread = 3.0 * float(SPAWN_STD[0])
    x_gap = abs(THEIR_ANCHOR[0] - OUR_ANCHOR[0])
    if x_gap - 2 * x_spread <= max_range:
        raise BattleError("anchors too close: units could spawn within fire range")
    n, m = len(config.ours), len(config.theirs)
    offset = np.clip(rng.normal(0.0, 1.0, (n + m, 2)) * SPAWN_STD,
                     -3.0 * SPAWN_STD, 3.0 * SPAWN_STD)
    anchor = np.repeat([OUR_ANCHOR, THEIR_ANCHOR], [n, m], axis=0)
    return BattleState(config, np.clip(anchor + offset, 1.0, ARENA - 1.0), rng)


# A separation pass visits the pairs of discs within _SLACK of contact
# when it starts, plus any pair its pushes carried into contact. A pair's
# distance at its turn is at least its start distance less how far each
# of its discs strayed from its start so far (triangle inequality). So a
# pass need only look among the pairs within _SCREEN of the widest
# contact while no two discs together stray that far, and among all
# pairs otherwise. _ROUNDING absorbs the rounding of the bounds.
_SLACK = 1.0
_SCREEN = 3.0
_ROUNDING = 1e-9


@functools.cache
def _upper_pairs(n):
    """Every pair (a, b), a < b, of n discs, in lexicographic order."""
    return np.triu_indices(n, 1)


# The screen's gathered positions, grown to the largest pair count seen,
# so that a separation call maps no fresh pages.
_gathered = [np.empty(0, dtype=complex)]


def _pair_distances(z, a, b) -> np.ndarray:
    """|z[b] - z[a]| per pair, gathered in the module buffer."""
    count = len(a)
    if _gathered[0].size < 2 * count:
        _gathered[0] = np.empty(2 * count, dtype=complex)
    za, zb = _gathered[0][:count], _gathered[0][count:2 * count]
    np.take(z, a, out=za)
    np.take(z, b, out=zb)
    return np.abs(np.subtract(zb, za, out=zb))


def _separate(pos, radius):
    """Symmetric separation push between overlapping discs, in place.

    Pairs (a, b), a < b, are handled in lexicographic order and each one
    sees the pushes of the pairs before it (Gauss-Seidel). A pass visits
    only the pairs near contact at the start. A pair it skipped can only
    have overlapped at its turn if its start gap, less how far each disc
    strayed from its start in the pass, is below zero; such pairs are
    checked at the positions they had at their turn, and if one did
    overlap, the pass is redone with it."""
    if len(pos) < 2:
        return
    start = pos.copy()
    z = start[:, 0] + 1j * start[:, 1]
    a_all, b_all = _upper_pairs(len(pos))
    rough_all = _pair_distances(z, a_all, b_all)  # screens pairs; pushes use exact norms
    screen = _SCREEN
    while True:
        near = rough_all < 2.0 * radius.max() + screen
        a, b = a_all[near], b_all[near]
        touch = radius[a] + radius[b]
        gap = rough_all[near] - touch
        visit = gap < _SLACK
        while True:
            strayed, trail = _sweep(pos, start, a[visit], b[visit],
                                    vec_norm(start[b[visit]] - start[a[visit]]), touch[visit])
            if 2.0 * strayed.max() > screen - _ROUNDING:
                break
            suspect = np.flatnonzero(~visit & (gap - strayed[a] - strayed[b] < _ROUNDING))
            hits = [k for k in suspect.tolist()
                    if _overlapped_at_turn(int(a[k]), int(b[k]), touch[k], start, trail)]
            if not hits:
                return
            visit[hits] = True
        screen = np.inf


def _overlapped_at_turn(p, q, min_dist, start, trail):
    """Whether pair (p, q), skipped by a pass, overlapped at its turn."""
    xp, yp = _position_at(p, (p, q), start, trail)
    xq, yq = _position_at(q, (p, q), start, trail)
    dx, dy = xq - xp, yq - yp
    if math.hypot(dx, dy) >= min_dist + _ROUNDING:
        return False
    return _norm(dx, dy) < min_dist


def _position_at(k, turn, start, trail):
    """Disc k's position in a pass just before pair `turn` was reached."""
    x, y = start[k].tolist()
    for pair, a, b, xa, ya, xb, yb in trail:
        if pair >= turn:
            break
        if a == k:
            x, y = xa, ya
        elif b == k:
            x, y = xb, yb
    return x, y


def _sweep(pos, start, a_rows, b_rows, dist0, touch):
    """One separation pass over the pairs (a_rows[k], b_rows[k]) from
    `start`, whose start distances are dist0; writes the result to `pos`.

    Returns how far each disc strayed from its start at any point of the
    pass, and its trail: every push in order, as (pair, a, b, xa, ya,
    xb, yb) with both discs' positions after it."""
    x0, y0 = start[:, 0].tolist(), start[:, 1].tolist()
    xs, ys = x0[:], y0[:]
    strayed = [0.0] * len(xs)
    trail = []
    for a, b, dist, min_dist in zip(a_rows.tolist(), b_rows.tolist(),
                                    dist0.tolist(), touch.tolist()):
        if strayed[a] or strayed[b]:
            dx, dy = xs[b] - xs[a], ys[b] - ys[a]
            # A cheap screen first; the exact length only near contact.
            if math.hypot(dx, dy) >= min_dist + _ROUNDING:
                continue
            dist = _norm(dx, dy)
        if dist >= min_dist:
            continue
        dx, dy = xs[b] - xs[a], ys[b] - ys[a]
        if dist == 0.0:
            ux, uy = 1.0, 0.0
        else:
            ux, uy = dx / dist, dy / dist
        push = 0.5 * (min_dist - dist)
        xs[a] = xa = xs[a] - ux * push
        ys[a] = ya = ys[a] - uy * push
        xs[b] = xb = xs[b] + ux * push
        ys[b] = yb = ys[b] + uy * push
        da, db = math.hypot(xa - x0[a], ya - y0[a]), math.hypot(xb - x0[b], yb - y0[b])
        if da > strayed[a]:
            strayed[a] = da
        if db > strayed[b]:
            strayed[b] = db
        trail.append(((a, b), a, b, xa, ya, xb, yb))
    pos[:, 0] = xs
    pos[:, 1] = ys
    return np.array(strayed), trail


def step_battle(state: BattleState, our_assignment):
    """Advance one assignment window; returns (reward, done, outcome).

    `our_assignment.target[i]` indexes the enemy list; -1 or a dead enemy
    leaves unit i idle for the window. An invalid assignment raises
    `BattleError` and leaves the state as it was.
    """
    if state.done:
        raise BattleError("battle already decided")
    n, health = state.n, state.health
    target = np.asarray(our_assignment.target)
    if target.shape[0] != n:
        raise BattleError(f"assignment covers {target.shape[0]} units, team has {n}")
    bad = np.flatnonzero((target < -1) | (target >= len(health) - n))
    if len(bad):
        i = int(bad[0])
        raise BattleError(f"unit {i} assigned to invalid enemy {int(target[i])}")
    state.target[:n] = np.where((target >= 0) & (health[n + target] > 0.0), n + target, -1)

    our_before = state.team_health(TEAM_OURS)
    their_before = state.team_health(TEAM_THEIRS)

    state._acquire_opponent_targets()
    # Reach of each unit to its window target (meaningless without one).
    reach = np.maximum(state.range, state.radius + state.radius[state.target] + CONTACT_EPS)
    for _ in range(ASSIGNMENT_PERIOD):
        if state.frame % OPPONENT_ORDER_PERIOD == 0:
            alive = health[:n] > 0.0
            if alive.any():
                state.opp_waypoint = np.mean(state.pos[:n][alive], axis=0)
        state.cooldown[(health > 0.0) & (state.cooldown > 0)] -= 1
        state._team_turn(0, n, reach, None)
        state._team_turn(n, len(health), reach, state.opp_waypoint)
        state.resolve_collisions()
        state.frame += 1
        ours_alive = bool((health[:n] > 0.0).any())
        theirs_alive = bool((health[n:] > 0.0).any())
        if not ours_alive or not theirs_alive:
            if ours_alive:
                state.outcome = "win"
            elif theirs_alive:
                state.outcome = "loss"
            else:
                state.outcome = "draw"
            break
        if state.frame >= FRAME_CAP:
            state.outcome = "draw"
            break

    reward = (
        state.team_health(TEAM_OURS) - our_before
        + their_before - state.team_health(TEAM_THEIRS)
    ) / state.our_health0
    return reward, state.done, state.outcome


def build_battle_constraints(state: BattleState):
    """Capacity = enemy remaining health; contribution = our unit's
    damage per attack. Dead units contribute/absorb nothing."""
    from ..assign import ConstraintSet

    n = state.n
    damage = np.where(state.health[:n] > 0.0, state.damage[:n], 0.0)
    mu = np.repeat(damage[:, None], len(state.health) - n, axis=1)
    return ConstraintSet(mu, state.health[n:].copy())


def frame_record(state: BattleState) -> dict:
    """One replay record: everything needed to redraw the frame. A unit's
    uid is its row, and its target an index into the other team."""
    n = state.n
    rows = [{
        "uid": k,
        "spec": spec.name,
        "pos": [round(x, 6), round(y, 6)],
        "health": round(health, 6),
        "target": None if t < 0 else t - n if k < n else t,
    } for k, (spec, (x, y), health, t) in enumerate(
        zip(state.specs, state.pos.tolist(), state.health.tolist(), state.target.tolist()))]
    return {"frame": state.frame, "ours": rows[:n], "theirs": rows[n:]}


# ---------------------------------------------------------------------------
# Scenario files

SCENARIO_DIR = Path(__file__).parent / "scenarios"


def load_spec(entry: dict) -> UnitSpec:
    return UnitSpec(
        name=entry["name"],
        max_health=float(entry["max_health"]),
        damage_per_attack=float(entry["damage_per_attack"]),
        cooldown_frames=int(entry["cooldown_frames"]),
        attack_range=float(entry["attack_range"]),
        speed=float(entry["speed"]),
        is_flying=bool(entry["is_flying"]),
        type_id=int(entry["type_id"]),
        radius=float(entry.get("radius", 0.75)),
    )


def load_scenario(name_or_path, seed: int = 0) -> BattleConfig:
    """Load a scenario JSON: {"version": 1, "specs": {...}, "ours": [...],
    "theirs": [...]} where team lists reference spec names."""
    path = Path(name_or_path)
    if not path.exists():
        path = SCENARIO_DIR / f"{name_or_path}.json"
    if not path.exists():
        raise BattleError(f"scenario not found: {name_or_path}")
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        raise BattleError(f"scenario {path} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BattleError(f"scenario {path} is not a JSON object")
    if data.get("version") != 1:
        raise BattleError(f"unsupported scenario version {data.get('version')}")
    try:
        specs = {name: load_spec({"name": name, **entry})
                 for name, entry in data["specs"].items()}
        ours = [specs[n] for n in data["ours"]]
        theirs = [specs[n] for n in data["theirs"]]
    except BattleError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BattleError(f"scenario {path}: missing or malformed entry {exc!r}") from exc
    return BattleConfig(ours=ours, theirs=theirs, seed=seed)
