"""Command-line entry point.

Subcommands::

    swarmplan train --config F
    swarmplan eval --checkpoint C --scenario S --seeds-file F [--env E] [--inference I]
    swarmplan sweep --spec F
    swarmplan oracle --env rescue --size NxM --seed K
    swarmplan battle-bench --scenario S --policy P [--checkpoint C]

All output is JSON on stdout; runs additionally persist config,
checkpoint, metrics CSV and version string in their output directory.
"""
from __future__ import annotations

import argparse
import json
import sys

from ..battle import HEURISTICS, BattleError
from ..learn import A2CConfig
from ..nets import CheckpointError, load_models
from ..rescue import RescueError
from .config import (ENVIRONMENTS, INFERENCES, HarnessError, integer_seeds, load_experiment,
                     load_sweep, parse_rescue_size)
from .evaluate import BATTLE_EVAL_SEED_BASE, RESCUE_EVAL_SEEDS, evaluate, oracle_report
from .sweep import hyperparameter_search, run_experiment


BATTLE_EPISODES = 100  # battles that `eval --env battle` and `battle-bench` play by default


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_seeds(path, environment):
    """The seeds in `path`, or the environment's default set: the rescue
    evaluation seeds, or the battles that `battle-bench` plays."""
    if path is None:
        return RESCUE_EVAL_SEEDS if environment == "rescue" else range(
            BATTLE_EVAL_SEED_BASE, BATTLE_EVAL_SEED_BASE + BATTLE_EPISODES)
    with open(path) as fh:
        try:
            seeds = json.load(fh)
        except ValueError as exc:
            raise HarnessError(f"seeds file {path}: {exc}") from exc
    if not isinstance(seeds, list) or not seeds:
        raise HarnessError("seeds file must hold a nonempty JSON list")
    seeds = list(integer_seeds(seeds, f"seeds file {path}"))
    if min(seeds) < 0:
        raise HarnessError(f"seeds file {path}: seeds must be >= 0")
    return seeds


def cmd_train(args):
    config = load_experiment(args.config)
    result, summary = run_experiment(config)
    _emit({"output_dir": config.output_dir, "updates": result.updates,
           "env_steps": result.env_steps, "eval": summary.to_dict()})


def cmd_eval(args):
    model, critic, meta = load_models(args.checkpoint)
    seeds = _load_seeds(args.seeds_file, args.env)
    summary = evaluate(model, args.env, args.scenario, seeds,
                       inference=args.inference, a2c=A2CConfig())
    _emit({"checkpoint": args.checkpoint, "scenario": args.scenario,
           **summary.to_dict()})


def cmd_sweep(args):
    spec, base = load_sweep(args.spec)
    ranked = hyperparameter_search(spec, base)
    _emit({"output_dir": base.output_dir, "runs": len(ranked),
           "best": ranked[0] if ranked and "score" in ranked[0] else None})


def cmd_oracle(args):
    if args.env != "rescue":
        raise HarnessError("oracle supports --env rescue only")
    n, m = parse_rescue_size(args.size)
    _emit(oracle_report(n, m, args.seed))


def cmd_battle_bench(args):
    policy = args.policy
    if policy == "checkpoint":
        if args.checkpoint is None:
            raise HarnessError("--policy checkpoint requires --checkpoint")
        policy, _, _ = load_models(args.checkpoint)
    summary = evaluate(policy, "battle", args.scenario,
                       range(args.seed_base, args.seed_base + args.episodes),
                       inference=args.inference, a2c=A2CConfig())
    _emit({"scenario": args.scenario, "policy": args.policy,
           **summary.to_dict()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmplan",
        description="score-parameterized multi-agent assignment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train per an experiment config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--seeds-file")
    p.add_argument("--env", choices=ENVIRONMENTS, default="rescue")
    p.add_argument("--inference", choices=INFERENCES, default="lp")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="hyperparameter random search")
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("oracle", help="exact routing plan for a rescue seed")
    p.add_argument("--env", default="rescue")
    p.add_argument("--size", required=True, help="NxM, e.g. 2x4")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("battle-bench", help="benchmark a battle policy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--policy", required=True,
                   choices=HEURISTICS + ("checkpoint",))
    p.add_argument("--checkpoint")
    p.add_argument("--inference", choices=INFERENCES, default="lp")
    p.add_argument("--episodes", type=int, default=BATTLE_EPISODES)
    p.add_argument("--seed-base", type=int, default=BATTLE_EVAL_SEED_BASE)
    p.set_defaults(fn=cmd_battle_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (HarnessError, CheckpointError, RescueError, BattleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
