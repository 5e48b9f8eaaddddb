"""Golden digests for the simplex, Frank-Wolfe and rounding layers.

Each instance folds into one sha256: the beta of a cold `PolytopeLp.solve`
(the revised simplex reference in `lp_reference.py`) on h and the beta
of a warm-started second solve on the same solver object (on the
Frank-Wolfe gradient at the cold vertex). A row-constant instance then
adds the `quad_relax_solve` beta and the targets of `greedy_round` (on
the cold and the quadratic beta) and of `round_quad`; any other mu adds
only the `greedy_round` targets of the cold beta. The digests in
`fixtures/assign_golden.json` pin these layers bit for bit, so a
refactor of the solver or of the rounding must reproduce them exactly.

Instances: 100 random ones (general mu, row-constant mu, half-integer
scores that tie, tasks with zero capacity; kinds 0, 2 and 3 draw a
general mu, which is row-constant only when m = 1), two m80v82 spawn
states and one m15v16 spawn state scored by the seed-0 random model with
a g net. On every row-constant instance, `round_quad` of the
`quad_relax_solve` iterate must also give the same targets as
`round_quad` of `reference_quad`, a plain Frank-Wolfe loop that stops
only on the gap tolerance or the iteration cap; on any other,
`quad_relax_solve` must raise AssignError. A random g is nearly flat, so
the same rounding is also compared, by objective, on eight m80v82 spawn
states scored by a trained model:
`fixtures/quad_battle_model.bin`, made by the harness before the settle
rule existed (`run_experiment` on m10v10 with `quad`, adam, gamma 0.999
and seed 3, stopped by a since removed 90-s wall-clock budget after 158
updates). With it, the rounding of the
iterate can hold still for 20 steps and then jump to a better vertex.
The digests do not depend on the BLAS thread count: the last test runs
the criterion-9 decision once with one OpenBLAS thread and once with the
default, each in its own process, and requires the same output.

`fixtures/full_coverage_golden.json` pins the full-coverage tables of
`full_coverage.py` under the committed trained model, the regime where
an LP that warm-starts from the previous vertex and one that starts
cold differ most. Per state the file holds the sha256 of the
`quad_relax_solve` beta and of the `round_quad` targets.

Regenerate the fixtures (only for a deliberate behaviour change) with

    PYTHONPATH=src python tests/test_assign_golden.py
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmplan
from swarmplan.assign import (
    AssignError,
    ConstraintSet,
    FwConfig,
    RelaxedAssignment,
    ScoreTable,
    fw_line_search,
    greedy_round,
    objective_value,
    quad_relax_solve,
    round_quad,
)
from swarmplan.assign.core import _lp_solver
from swarmplan.battle import (
    build_battle_constraints,
    extract_battle_features,
    load_scenario,
    spawn_battle,
)
from swarmplan.nets import init_scoring_model, load_models, score_pairs
from full_coverage import SEEDS as FULL_COVERAGE_SEEDS, full_coverage_instance
from lp_reference import PolytopeLp

FIXTURE = Path(__file__).parent / "fixtures" / "assign_golden.json"
TRAINED_MODEL = Path(__file__).parent / "fixtures" / "quad_battle_model.bin"
FULL_COVERAGE = Path(__file__).parent / "fixtures" / "full_coverage_golden.json"
RANDOM_INSTANCES = 100
BATTLES = (("m80v82", 0), ("m80v82", 1), ("m15v16", 0))


def random_instance(seed: int):
    """Kind = seed % 4: general mu, row-constant mu, tied scores, zero capacities."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    n, m = (int(x) for x in rng.integers(1, 9, size=2))
    if kind == 1:
        mu = np.tile(rng.uniform(0.2, 2.0, size=(n, 1)), (1, m))
    else:
        mu = rng.uniform(0.2, 2.0, size=(n, m))
    u = rng.uniform(0.0, 3.0, size=m)
    if kind == 3:
        u[rng.random(m) < 0.4] = 0.0
    if kind == 2:
        h = rng.integers(-2, 4, size=(n, m)) / 2.0
        g = rng.integers(-2, 3, size=(m, m)) / 2.0
    else:
        h = rng.normal(size=(n, m))
        g = 0.3 * rng.normal(size=(m, m))
    return ScoreTable(h, g), ConstraintSet(mu, u)


def battle_instance(scenario: str, seed: int, model=None):
    """A spawn state scored by `model`, or by the seed-0 random model."""
    state = spawn_battle(load_scenario(scenario, seed=seed))
    agents, tasks, extras = extract_battle_features(state)
    if model is None:
        model = init_scoring_model(agents.shape[1], tasks.shape[1],
                                   pair_extra_dim=extras.shape[-1], with_g=True, seed=0)
    return score_pairs(model, agents, tasks, pair_extras=extras), build_battle_constraints(state)


def full_coverage_digests(model) -> dict:
    """Per state: sha256 of the quad_relax_solve beta and the round_quad targets."""
    table = {}
    for seed in FULL_COVERAGE_SEEDS:
        scores, cons = full_coverage_instance(seed, model)
        relaxed = quad_relax_solve(scores, cons)
        target = round_quad(relaxed, scores, cons).target
        table[str(seed)] = {
            "beta": hashlib.sha256(relaxed.beta.tobytes()).hexdigest(),
            "targets": hashlib.sha256(target.astype(np.int64).tobytes()).hexdigest(),
            "assigned": int((target >= 0).sum()),
        }
    return table


def golden_cases():
    for seed in range(RANDOM_INSTANCES):
        yield f"random/{seed}", lambda seed=seed: random_instance(seed)
    for scenario, seed in BATTLES:
        yield f"{scenario}/{seed}", lambda s=scenario, k=seed: battle_instance(s, k)


def row_constant(cons: ConstraintSet) -> bool:
    """True iff each agent contributes the same mu to every task."""
    return bool((cons.mu == cons.mu[:, :1]).all())


def instance_digest(scores: ScoreTable, cons: ConstraintSet) -> str:
    digest = hashlib.sha256()

    def absorb(a, dtype):
        digest.update(np.ascontiguousarray(a, dtype=dtype).tobytes())

    lp = PolytopeLp(cons.mu, cons.u)
    cold = lp.solve(scores.h)
    warm = lp.solve(scores.h + ((scores.g + scores.g.T) @ cold.sum(axis=0))[None, :])
    cold_targets = greedy_round(RelaxedAssignment(cold), scores, cons).target
    absorb(cold, np.float64)
    absorb(warm, np.float64)
    if not row_constant(cons):
        absorb(cold_targets, np.int64)
        return digest.hexdigest()
    quad = quad_relax_solve(scores, cons)
    absorb(quad.beta, np.float64)
    absorb(cold_targets, np.int64)
    absorb(greedy_round(quad, scores, cons).target, np.int64)
    absorb(round_quad(quad, scores, cons).target, np.int64)
    return digest.hexdigest()


def reference_quad(scores: ScoreTable, cons: ConstraintSet) -> RelaxedAssignment:
    """Frank-Wolfe from beta = 0 that stops only when the FW gap falls
    below the relative gap tolerance, on a zero step, or at the iteration
    cap: the reference for `quad_relax_solve`'s rounded targets."""
    cfg = FwConfig()
    beta = np.zeros((scores.n, scores.m))
    g_sym = scores.g + scores.g.T
    lp = _lp_solver(cons)
    for _ in range(cfg.max_iters):
        r = beta.sum(axis=0)
        grad = scores.h + (g_sym @ r)[None, :]
        vertex = RelaxedAssignment(lp.solve(grad))
        gap = float(np.sum(grad * (vertex.beta - beta)))
        obj = objective_value(RelaxedAssignment(beta), scores)
        if gap <= cfg.gap_tol * (1.0 + abs(obj)):
            break
        gamma = fw_line_search(RelaxedAssignment(beta), vertex, scores)
        if gamma == 0.0:
            break
        beta = beta + gamma * (vertex.beta - beta)
    return RelaxedAssignment(np.clip(beta, 0.0, 1.0))


CASES = dict(golden_cases())


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_golden_digest(golden, key):
    assert instance_digest(*CASES[key]()) == golden[key]


@pytest.mark.parametrize("key", list(CASES))
def test_round_quad_equals_reference(key):
    scores, cons = CASES[key]()
    if not row_constant(cons):
        with pytest.raises(AssignError):
            quad_relax_solve(scores, cons)
        return
    np.testing.assert_array_equal(
        round_quad(quad_relax_solve(scores, cons), scores, cons).target,
        round_quad(reference_quad(scores, cons), scores, cons).target)


@pytest.fixture(scope="module")
def trained_model():
    return load_models(TRAINED_MODEL)[0]


@pytest.mark.parametrize("seed", range(101000, 101008))
def test_trained_quad_decision_not_below_reference(trained_model, seed):
    scores, cons = battle_instance("m80v82", seed, trained_model)
    ours = round_quad(quad_relax_solve(scores, cons), scores, cons)
    want = round_quad(reference_quad(scores, cons), scores, cons)
    assert objective_value(ours, scores) >= objective_value(want, scores) - 1e-12


def test_full_coverage_tables_match_golden(trained_model):
    want = json.loads(FULL_COVERAGE.read_text())
    got = full_coverage_digests(trained_model)
    assert got == want
    # the full-coverage regime: most units get a target
    assert all(entry["assigned"] >= 40 for entry in got.values())


# The criterion-9 decision (m80v82 seed 0, seed-0 random model, quad),
# printed as its targets and the sha256 of its relaxed beta.
QUAD_DECISION = """
import hashlib
from swarmplan.assign import quad_relax_solve, round_quad
from swarmplan.battle import build_battle_constraints, extract_battle_features, load_scenario, spawn_battle
from swarmplan.nets import init_scoring_model, load_models, score_pairs
state = spawn_battle(load_scenario("m80v82", seed=0))
agents, tasks, extras = extract_battle_features(state)
model = init_scoring_model(agents.shape[1], tasks.shape[1],
                           pair_extra_dim=extras.shape[-1], with_g=True, seed=0)
scores = score_pairs(model, agents, tasks, pair_extras=extras)
cons = build_battle_constraints(state)
relaxed = quad_relax_solve(scores, cons)
print(hashlib.sha256(relaxed.beta.tobytes()).hexdigest())
print(round_quad(relaxed, scores, cons).target.tolist())
"""
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _quad_decision(**blas_env):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas_env)
    src = str(Path(swarmplan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", QUAD_DECISION], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_quad_decision_does_not_depend_on_blas_threads():
    pinned = _quad_decision(OPENBLAS_NUM_THREADS="1")
    assert pinned.count("\n") == 2
    assert _quad_decision() == pinned


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {key: instance_digest(*make()) for key, make in CASES.items()}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {FIXTURE}")
    table = full_coverage_digests(load_models(TRAINED_MODEL)[0])
    FULL_COVERAGE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} states to {FULL_COVERAGE}")
