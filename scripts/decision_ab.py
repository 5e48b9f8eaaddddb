#!/usr/bin/env python3
"""Same-process A/B of `quad` decisions, wcnok battles and A2C training
between this checkout and another.

    python3 scripts/decision_ab.py --baseline DIR [--cases NAME [NAME ...]]

Both checkouts' `swarmplan` packages are loaded into one process, and
every item runs on each side in turn, the side that goes first
alternating from item to item and from round to round, so that drifts
of the host's speed hit both sides alike. One round runs every item of
a case once per side; a round is one pair, and ROUNDS rounds run. A
decision is the scoring (`score_pairs`) plus the `quad` procedure on
features and constraints built once; the full-coverage case times the
procedure alone on fixed tables. `--cases` runs the named cases only,
in the order below, and builds no other case's items; by default every
case runs. The cases:

  * `quad-workload`: the `battle-80v82-quad` workload's 32 seed-1 spawn
    states under its random seed-0 model;
  * `score-m80v82`: the scoring alone (`score_pairs`, h and g) on those
    states and that model, which separates the scoring's share of a
    decision's time from the LP's;
  * `trained-m80v82`, `trained-m10v10`, `trained-m5v5`: the committed
    trained model `tests/fixtures/quad_battle_model.bin` on spawn states
    101000-101031 of each scenario;
  * `full-coverage`: that model's full-coverage tables of
    `tests/full_coverage.py`, where 45-51 of 80 units get a target;
  * `wcnok-m80v82`: whole m80v82 battles from spawn seeds 1000-1003,
    each side spawning its own and stepping it with its own
    `heuristic_policy("wcnok")` and `step_battle` until the battle ends,
    building the features and constraints of every window as
    `BattleMetaEnv` does;
  * `spawn-m80v82`: the 32 seed-1 spawns of the `battle-80v82-quad`
    workload's set-up (scenario load and `spawn_battle`), each with its
    features;
  * `train-2x4`: the `rescue-train-2x4` workload's training, `learn.train`
    of 24 updates with LP inference on rescue 2x4 from that workload's
    initial networks and its `TRAIN_A2C` config (read from
    `perfbench/workloads.py`, which is neither imported nor changed),
    one item per seed 1000-1003. Run it alone (`--cases train-2x4`) to
    time it as the workload runs: once the m80v82 cases have freed their
    large arrays, glibc's raised mmap and trim thresholds keep a
    training's arrays in pages already mapped, on either side;
  * `rollout-2x4`: that training's rollout alone: ROLLOUT_ROUNDS rounds
    of `RolloutLanes.collect_round` on its 8 rescue 2x4 lanes with LP
    inference, built and seeded as `learn.train` builds them, under its
    initial seed-0 model and with no update, one item per seed
    1000-1003. It shows the rollout's share of a change to training,
    which perfbench's trace does not. Run it alone too;
  * `eval-8x15`: the `rescue-eval-8x15` workload's seed-1 calls,
    `harness.evaluate_rescue_model` of its random seed-0 model with LP
    inference at 8x15 and the `TRAIN_A2C` config, one item per call of
    4 episode seeds from 1000-1031. Each side records the chunks that
    `RolloutWorker.collect_chunk` gives, as the workload does. Run it
    alone too.

Prints one JSON object: per case, what an item is, each side's items/s
per round, their medians and quartiles, the rounds the checkout under
test won, and whether both sides gave the same results: the same
targets per decision, per battle the same final frame, outcome and
position and health of every unit, per scoring the same h and g, per
spawn the same features, per training the same bytes of every
parameter, per rollout the same bytes of every sampled h and target,
and per evaluation call the same summary and the same
targets at every step. A runner may return a function, which gives
its result after the timer stops.
The BLAS thread count is whatever the environment sets; pin it for a
measurement.
"""
import argparse
import ast
import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_file import summarize

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "tests" / "fixtures" / "quad_battle_model.bin"
ROUNDS = 10
TRAIN_UPDATES = 24
ROLLOUT_ROUNDS = 96  # the rounds of a TRAIN_UPDATES training: 32 chunks per update, 8 per round


def load_side(checkout: Path) -> dict:
    """Import `swarmplan` from `checkout`, keeping its modules apart from
    the other side's: each copy's functions hold their own globals."""
    for name in [k for k in sys.modules if k == "swarmplan" or k.startswith("swarmplan.")]:
        del sys.modules[name]
    sys.path.insert(0, str(checkout / "src"))
    try:
        mods = {name: importlib.import_module(f"swarmplan.{name}")
                for name in ("assign", "battle", "harness", "learn", "nets", "rescue")}
    finally:
        sys.path.pop(0)
    return mods


def build_cases(mods, names) -> dict:
    """Per named case: (item kind, runner, items). `runner(mods)` makes a
    side's function of one item. The decision items, [(agents, tasks,
    extras, cons)] or, for fixed tables, [(table, cons)], are built with
    one side's code; the other side reads them as they are."""
    battle, nets = mods["battle"], mods["nets"]
    trained = functools.cache(lambda: nets.load_models(MODEL)[0])

    def inputs(scenario, seeds):
        out = []
        for seed in seeds:
            state = battle.spawn_battle(battle.load_scenario(scenario, seed=seed))
            out.append((*battle.extract_battle_features(state),
                        battle.build_battle_constraints(state)))
        return out

    workload = functools.cache(lambda: inputs("m80v82", range(1000, 1032)))

    def random_model():
        agents, tasks, extras, _ = workload()[0]
        return nets.init_scoring_model(agents.shape[1], tasks.shape[1],
                                       pair_extra_dim=extras.shape[-1], with_g=True, seed=0)

    def tables():
        # the helper binds to the `swarmplan` in sys.modules, the side loaded last
        sys.path.insert(0, str(ROOT / "tests"))
        try:
            import full_coverage
        finally:
            sys.path.pop(0)
        return [full_coverage.full_coverage_instance(seed, trained())
                for seed in full_coverage.SEEDS]

    seeds = range(101000, 101032)
    make = {
        "quad-workload": lambda: ("decision", decider(random_model()), workload()),
        "score-m80v82": lambda: ("scoring", scorer(random_model()), workload()),
        "trained-m80v82": lambda: ("decision", decider(trained()), inputs("m80v82", seeds)),
        "trained-m10v10": lambda: ("decision", decider(trained()), inputs("m10v10", seeds)),
        "trained-m5v5": lambda: ("decision", decider(trained()), inputs("m5v5", seeds)),
        "full-coverage": lambda: ("decision", decider(None), tables()),
        "wcnok-m80v82": lambda: ("battle", wcnok_battle,
                                 [(seed,) for seed in range(1000, 1004)]),
        "spawn-m80v82": lambda: ("spawn", spawn_setup,
                                 [(seed,) for seed in range(1000, 1032)]),
        "train-2x4": lambda: ("training", trainer(train_a2c()),
                              [(seed,) for seed in range(1000, 1004)]),
        "rollout-2x4": lambda: ("rollout", roller(train_a2c()),
                                [(seed,) for seed in range(1000, 1004)]),
        "eval-8x15": lambda: ("evaluation", evaluator(train_a2c()),
                              [tuple(range(seed, seed + 4)) for seed in range(1000, 1032, 4)]),
    }
    return {name: make[name]() for name in CASES if name in names}


CASES = ("quad-workload", "score-m80v82", "trained-m80v82", "trained-m10v10",
         "trained-m5v5", "full-coverage", "wcnok-m80v82", "spawn-m80v82", "train-2x4",
         "rollout-2x4", "eval-8x15")


def decider(model):
    """The runner of `quad` decisions with `model`, or on fixed tables
    when it is None; a decision's result is its targets' bytes."""
    def runner(mods):
        score, infer = mods["nets"].score_pairs, mods["assign"].get_procedure("quad")
        if model is None:
            return lambda table, cons: infer(table, cons).target.tobytes()
        return lambda agents, tasks, extras, cons: infer(
            score(model, agents, tasks, pair_extras=extras), cons).target.tobytes()
    return runner


def scorer(model):
    """The runner of `score_pairs` with `model`; a scoring's result is the
    bytes of its h and g."""
    def runner(mods):
        score = mods["nets"].score_pairs

        def run(agents, tasks, extras, cons):
            table = score(model, agents, tasks, pair_extras=extras)
            return table.h.tobytes() + table.g.tobytes()
        return run
    return runner


def wcnok_battle(mods):
    """The runner of whole m80v82 wcnok battles from a spawn seed, each
    window observed as `BattleMetaEnv` observes it; a battle's result is
    its final frame, outcome and every unit's position and health."""
    battle = mods["battle"]

    def observe(state):
        battle.extract_battle_features(state)
        battle.build_battle_constraints(state)

    def play(seed):
        state = battle.spawn_battle(battle.load_scenario("m80v82", seed=seed))
        observe(state)
        policy = battle.heuristic_policy("wcnok")
        while not state.done:
            battle.step_battle(state, policy(state))
            observe(state)
        return (state.frame, state.outcome,
                [(x, y, h) for (x, y), h in zip(state.pos.tolist(), state.health.tolist())])
    return play


def spawn_setup(mods):
    """The runner of one m80v82 spawn and its features from a seed; its
    result is the features' bytes."""
    battle = mods["battle"]

    def spawn(seed):
        state = battle.spawn_battle(battle.load_scenario("m80v82", seed=seed))
        return b"".join(a.tobytes() for a in battle.extract_battle_features(state))
    return spawn


def train_a2c() -> dict:
    """The `rescue-train-2x4` workload's `TRAIN_A2C` keywords, parsed from
    perfbench/workloads.py without importing it, since that module binds
    to whichever `swarmplan` is loaded."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TRAIN_A2C" for target in node.targets):
            return {kw.arg: ast.literal_eval(kw.value) for kw in node.value.keywords}
    raise LookupError("perfbench/workloads.py defines no TRAIN_A2C")


def trainer(a2c):
    """The runner of `rescue-train-2x4` trainings of TRAIN_UPDATES updates
    from a seed; a training's result is the bytes of every parameter."""
    def runner(mods):
        learn, nets, rescue = mods["learn"], mods["nets"], mods["rescue"]

        def run(seed):
            model = nets.init_scoring_model(2, 3, with_g=False, seed=0)
            critic = nets.init_critic(2, 3, seed=1)
            learn.train(model, critic,
                        lambda: learn.RescueMetaEnv(rescue.RescueConfig(2, 4, seed=0)),
                        "lp", learn.A2CConfig(**a2c), total_updates=TRAIN_UPDATES, seed=seed)
            return b"".join(nets.params_to_vector(net).tobytes()
                            for net in (model.h_net, critic.embed_net, critic.head_net))
        return run
    return runner


def roller(a2c):
    """The runner of `rescue-train-2x4` rollouts of ROLLOUT_ROUNDS rounds
    from a seed, with the lanes, rngs and initial model of that workload's
    training and no update; a rollout's result is the bytes of every
    round's sampled h and targets, read after the timer stops."""
    def runner(mods):
        learn, rescue = mods["learn"], mods["rescue"]
        model = mods["nets"].init_scoring_model(2, 3, with_g=False, seed=0)

        def run(seed):
            cfg = learn.A2CConfig(**a2c)
            lanes = learn.RolloutLanes(
                [learn.RescueMetaEnv(rescue.RescueConfig(2, 4, seed=0))
                 for _ in range(cfg.workers)], "lp", cfg,
                [np.random.default_rng(seed + 7919 * (k + 1)) for k in range(cfg.workers)])
            lanes.set_model(model)
            stacks = [lanes.collect_round()[0].stack for _ in range(ROLLOUT_ROUNDS)]
            return lambda: b"".join(a.tobytes() for stack in stacks
                                    for a in stack.sampled_h + stack.targets)
        return run
    return runner


def evaluator(a2c):
    """The runner of `rescue-eval-8x15` evaluation calls on a tuple of
    episode seeds; a call's result is its summary and the targets of
    every step it played, read from its chunks after the timer stops."""
    def runner(mods):
        learn = mods["learn"]
        model = mods["nets"].init_scoring_model(2, 3, with_g=False, seed=0)
        chunks = []
        collect = learn.RolloutWorker.collect_chunk

        def collect_chunk(worker):
            chunk = collect(worker)
            chunks.append(chunk)
            return chunk
        learn.RolloutWorker.collect_chunk = collect_chunk

        def run(*seeds):
            chunks.clear()
            summary = mods["harness"].evaluate_rescue_model(
                model, "lp", learn.A2CConfig(**a2c), 8, 15, seeds=seeds)
            played = list(chunks)
            return lambda: (summary.to_dict(), [step.assignment.target.tolist()
                                                for chunk in played for step in chunk.steps])
        return run
    return runner


def run_case(kind: str, runners: dict, items: list) -> dict:
    sides = list(runners)
    rates = {name: [] for name in sides}
    same = True
    for r in range(ROUNDS):
        seconds = dict.fromkeys(sides, 0.0)
        for k, item in enumerate(items):
            order = sides if (r + k) % 2 == 0 else sides[::-1]
            results = {}
            for name in order:
                start = time.perf_counter()
                result = runners[name](*item)
                seconds[name] += time.perf_counter() - start
                results[name] = result() if callable(result) else result
            same &= results["change"] == results["baseline"]
        for name in sides:
            rates[name].append(len(items) / seconds[name])
    wins = sum(c > b for c, b in zip(rates["change"], rates["baseline"]))
    return {"item": kind, "items": len(items), "rounds": ROUNDS, "same_results": bool(same),
            "items_per_s": rates,
            "summary": {name: summarize(rates[name]) for name in sides},
            "speedup_of_medians": (statistics.median(rates["change"])
                                   / statistics.median(rates["baseline"])),
            "change_won": wins}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--cases", nargs="+", choices=CASES, default=CASES, metavar="NAME",
                        help=f"the cases to run, of {', '.join(CASES)} (default: all)")
    args = parser.parse_args(argv)
    sides = {"baseline": load_side(args.baseline.resolve()), "change": load_side(ROOT)}
    out = {}
    for case, (kind, runner, items) in build_cases(sides["change"], args.cases).items():
        out[case] = run_case(kind, {name: runner(mods) for name, mods in sides.items()},
                             items)
        print(f"{case}: {out[case]['summary']}", file=sys.stderr, flush=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
