"""Generalization sweeps and hyperparameter random search."""
from __future__ import annotations

import csv
import dataclasses
import json
import subprocess
import traceback
from pathlib import Path

import numpy as np

from ..battle import load_scenario
from ..learn import OPTIMIZERS, A2CConfig, BattleMetaEnv, RescueMetaEnv, train
from ..nets import init_critic, init_scoring_model, save_models
from ..rescue import RescueConfig
from .config import ExperimentConfig, HarnessError, SweepSpec, parse_rescue_size, save_experiment
from .evaluate import evaluate, feature_dims

SWEEP_FIELDS = ("scenario", "baseline_mean", "method_mean", "delta_percent",
                "method_stderr", "failures", "episodes")


def improvement(baseline_mean: float, method_mean: float) -> float:
    """Percent improvement over baseline: 100 * (baseline - method) / baseline."""
    if baseline_mean == 0.0:
        raise HarnessError("baseline mean is zero; improvement undefined")
    return 100.0 * (baseline_mean - method_mean) / baseline_mean


def generalization_sweep(policy, environment: str, test_scenarios, eval_seeds,
                         inference: str = "lp", a2c: A2CConfig | None = None,
                         csv_path=None):
    """Evaluate the SAME parameters on every test scenario, zero-shot.

    `policy` is a ScoringModel or a reference-policy name. Each row also
    carries the closest-baseline mean and the percent improvement over
    it. Feature-schema mismatches between the checkpoint and a scenario
    raise rather than coerce.
    """
    rows = []
    for scenario in test_scenarios:
        baseline = evaluate("closest" if environment == "rescue" else "c",
                            environment, scenario, eval_seeds)
        summary = evaluate(policy, environment, scenario, eval_seeds,
                           inference, a2c)
        rows.append({
            "scenario": scenario,
            "baseline_mean": baseline.mean,
            "method_mean": summary.mean,
            "delta_percent": improvement(baseline.mean, summary.mean),
            "method_stderr": summary.stderr,
            "failures": summary.failures,
            "episodes": summary.episodes,
        })
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def sample_config(environment: str, base: A2CConfig, rng) -> A2CConfig:
    """One random-search draw over the tunable fields of A2CConfig.

    Both learning rates are 10^-c with c uniform on [0, 5]; sigma is
    uniform on [0.1, 2] for rescue and [0.1, 3] for battle; lambda is
    10^c with c uniform on [-3, 3]; p is uniform on 1..10, n_steps on
    2..10, and the optimizer is sgd or adam with equal odds.
    """
    return dataclasses.replace(
        base,
        lr_policy=float(10.0 ** -rng.uniform(0.0, 5.0)),
        lr_value=float(10.0 ** -rng.uniform(0.0, 5.0)),
        sigma=float(rng.uniform(0.1, 3.0 if environment == "battle" else 2.0)),
        lam=float(10.0 ** rng.uniform(-3.0, 3.0)),
        p=int(rng.integers(1, 11)),
        n_steps=int(rng.integers(2, 11)),
        optimizer=str(rng.choice(OPTIMIZERS)),
    )


def code_version() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, cwd=Path(__file__).parent, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def make_setup(config: ExperimentConfig):
    """(env_factory, fresh model, fresh critic) for a rescue or battle experiment."""
    if config.environment == "rescue":
        n, m = parse_rescue_size(config.scenario)
        env_factory = lambda: RescueMetaEnv(RescueConfig(n, m, seed=config.seed))
    else:
        env_factory = lambda: BattleMetaEnv(load_scenario(config.scenario, seed=config.seed))
    probe_env = env_factory()
    agent_dim, task_dim, extra_dim = feature_dims(probe_env)
    model = init_scoring_model(agent_dim, task_dim, pair_extra_dim=extra_dim,
                               with_g=config.inference == "quad", seed=config.seed)
    critic = init_critic(2, probe_env.feature_dim, seed=config.seed + 1)
    return env_factory, model, critic


def run_experiment(config: ExperimentConfig):
    """Train per the config and persist a complete run directory.

    The directory contains the resolved config, the final checkpoint,
    the metrics CSV and the code version string — everything needed to
    re-run bit-identically with the same seed.
    """
    env_factory, model, critic = make_setup(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_experiment(out / "config.json", config)
    (out / "VERSION").write_text(code_version() + "\n")
    result = train(model, critic, env_factory, config.inference, config.a2c,
                   total_updates=config.total_updates, seed=config.seed,
                   eval_every=config.eval_every, metrics_path=out / "metrics.csv")
    save_models(out / "checkpoint.bin", result.model, result.critic)
    summary = evaluate(result.model, config.environment, config.scenario,
                       config.eval_seeds, config.inference, config.a2c)
    (out / "eval.json").write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
    return result, summary


def hyperparameter_search(spec: SweepSpec, base: ExperimentConfig):
    """Random search: sample, train, evaluate, rank.

    Individual run failures are recorded (with the exception text) and
    the sweep continues. Rescue ranks by ascending episode length,
    battle by descending return. Every run directory persists its
    sampled config and metrics.
    """
    rng = np.random.default_rng(spec.seed)
    results = []
    root = Path(base.output_dir)
    for k in range(spec.samples):
        a2c = sample_config(base.environment, base.a2c, rng)
        run_cfg = dataclasses.replace(
            base, a2c=a2c, output_dir=str(root / f"run_{k:03d}"),
            seed=base.seed + k, total_updates=spec.budget_updates)
        record = {"run": k, "a2c": dataclasses.asdict(a2c)}
        try:
            _, summary = run_experiment(run_cfg)
            record["summary"] = summary.to_dict()
            record["score"] = summary.mean
        except Exception as exc:  # recorded, sweep continues
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc()
        results.append(record)
    ascending = base.environment == "rescue"
    ranked = sorted(
        (r for r in results if "score" in r),
        key=lambda r: r["score"] if ascending else -r["score"])
    ranked += [r for r in results if "score" not in r]
    root.mkdir(parents=True, exist_ok=True)
    (root / "sweep_results.json").write_text(
        json.dumps({"spec": dataclasses.asdict(spec), "ranked": ranked}, indent=2) + "\n")
    return ranked
