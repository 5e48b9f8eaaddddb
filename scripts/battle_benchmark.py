#!/usr/bin/env python3
"""Win rates and mean returns for every scripted battle heuristic."""
import argparse

from swarmplan.battle import HEURISTICS
from swarmplan.harness import BATTLE_EVAL_SEED_BASE, evaluate_battle_heuristic


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenarios", nargs="+",
                        default=["m5v5", "m10v10", "m15v16", "w15v16", "zh10v10"])
    parser.add_argument("--episodes", type=int, default=100)
    parser.add_argument("--seed-base", type=int, default=BATTLE_EVAL_SEED_BASE)
    args = parser.parse_args()
    seeds = range(args.seed_base, args.seed_base + args.episodes)
    print(f"{'scenario':>10} {'policy':>9} {'win_rate':>8} {'mean_ret':>9} {'draws':>5}")
    for scenario in args.scenarios:
        for kind in HEURISTICS:
            s = evaluate_battle_heuristic(kind, scenario, seeds)
            print(f"{scenario:>10} {kind:>9} {s.extra['win_rate']:>8.2f} "
                  f"{s.mean:>9.3f} {s.failures:>5}")


if __name__ == "__main__":
    main()
