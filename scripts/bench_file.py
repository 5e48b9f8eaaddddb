#!/usr/bin/env python3
"""Run the benchmark on every workload and write BENCH_<label>.json.

    python3 scripts/bench_file.py --label L --seeds 1 2 3 [--baseline DIR]

For each workload and seed this runs `perfbench/run.py --trace 0`, then
a `--trace 1` run on each of the first TRACED_SEEDS seeds, and reads the
records perfbench leaves in `.perfbench/*.json`. The output holds, per
workload, every run's end-to-end metrics, their median and quartiles,
the failed and attempted operation counts, and every traced run's
per-layer numbers with their median and quartiles, together with the
seeds, the run length and the BLAS thread count. One traced run per
side cannot tell a layer's change from the host's drift.

It also records the Frank-Wolfe counters of the `battle-80v82-quad`
workload, which perfbench's traced spans do not see: for the workload's
32 spawn states of the first seed, the total iteration and pivot counts,
the median iteration count and the shares of solves stopped by the
settle rule and by the iteration cap, from `quad_relax_solve(stats=...)`
in a process of each checkout.

With `--baseline DIR` (another checkout, such as the parent commit) the
same runs, traced and untraced, are made on DIR too, in pairs that
alternate which side runs first, because the host's speed drifts over
minutes. The file then also
records, per metric, how many pairs the checkout under test won, and,
as ungated extras, the same-process A/Bs of `scripts/decision_ab.py`
with one BLAS thread: `quad` decisions (trained model at m80v82, m10v10
and m5v5, the full-coverage tables and the quad workload's states), the
scoring alone on the quad workload's states, whole m80v82 wcnok battles,
the quad workload's spawns, 24-update trainings of the
`rescue-train-2x4` workload, the rollouts of those trainings without
their updates and the evaluation calls of the `rescue-eval-8x15`
workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rescue-train-2x4", "battle-80v82-quad", "battle-80v82-wcnok",
             "rescue-eval-8x15")
BETTER = {"work_per_s": max, "op_tail_ms": min, "setup_s": min}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACED_SEEDS = 3  # the first seeds that also get a traced run per side

# Run in a checkout with its own sources and workloads; argv[1] is the seed.
# A solver without the settle rule reports no `settled`.
FW_COUNTERS = """
import json, statistics, sys
sys.path[:0] = ["src", "perfbench"]
from workloads import QuadWorkload
from swarmplan import assign, battle, nets
work = QuadWorkload(int(sys.argv[1]), None)
work.setup()
solves = []
for state in work.states:
    agents, tasks, extras = battle.extract_battle_features(state)
    table = nets.score_pairs(work.model, agents, tasks, pair_extras=extras)
    stats = {}
    assign.quad_relax_solve(table, battle.build_battle_constraints(state), stats=stats)
    solves.append(stats)
print(json.dumps({
    "states": len(solves),
    "iters": sum(s["iters"] for s in solves),
    "pivots": sum(s["pivots"] for s in solves),
    "iters_p50": statistics.median(s["iters"] for s in solves),
    "settled_share": statistics.fmean(s.get("settled", False) for s in solves),
    "cap_hit_share": statistics.fmean(s["hit_cap"] for s in solves),
}))
"""


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `checkout`; returns its record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    path = checkout / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def fw_counters(checkout: Path, seed: int) -> dict:
    """Frank-Wolfe counters of the quad workload's states in `checkout`."""
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}
    proc = subprocess.run([sys.executable, "-c", FW_COUNTERS, str(seed)], cwd=checkout,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"FW counters in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return {"seed": seed, **json.loads(proc.stdout)}


def decision_ab(baseline: Path) -> dict:
    """Same-process decision, battle, training, rollout and evaluation A/Bs
    against `baseline`, one BLAS thread. The training, rollout and
    evaluation cases each run in a process of their own, as their workloads do: glibc raises
    its mmap and trim thresholds when a large mapped block is freed, so
    after the m80v82 cases their arrays would no longer map fresh pages
    on either side."""
    from decision_ab import CASES
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}
    alone = ("train-2x4", "rollout-2x4", "eval-8x15")
    out = {}
    for cases in [[case for case in CASES if case not in alone]] + [[case] for case in alone]:
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "decision_ab.py"),
                               "--baseline", str(baseline), "--cases", *cases], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"decision A/B exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out.update(json.loads(proc.stdout))
    return out


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summaries(records: list) -> dict:
    """Median and quartiles of each metric over `records`."""
    return {m: summarize([r["metrics"][m] for r in records]) for m in sorted(records[0]["metrics"])}


def side(records: list, traced: list) -> dict:
    """Runs, medians and quartiles of one checkout on one workload."""
    return {
        "runs": [{"seed": r["seed"], "metrics": r["metrics"], "named": {
                      k: v["value"] for k, v in r["named"].items()},
                  "attempted": r["attempted"], "failed": r["failed"],
                  "digest": r["digest"]} for r in records],
        "summary": summaries(records),
        "failed": sum(r["failed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "traced": {"runs": [{"seed": r["seed"], "metrics": r["metrics"]} for r in traced],
                   "summary": summaries(traced)},
    }


def paired_runs(sides: dict, workload: str, seeds: list, seconds: float, trace: int) -> dict:
    """One run per side and seed, the side that goes first alternating
    from seed to seed; returns each side's records."""
    records = {name: [] for name in sides}
    for i, seed in enumerate(seeds):
        for name in list(sides) if i % 2 == 0 else list(reversed(sides)):
            record = run(sides[name], workload, seed, seconds, trace)
            records[name].append(record)
            shown = record["metrics"] if trace == 0 else {"failed": record["failed"]}
            print(f"{workload} seed {seed} trace {trace} {name}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in shown.items()), flush=True)
    return records


def pair_wins(change: list, base: list) -> dict:
    """Per end-to-end metric, the pairs the change won and lost (ties: neither)."""
    out = {}
    for metric, best in BETTER.items():
        won = lost = 0
        for c, b in zip(change, base):
            cv, bv = c["metrics"][metric], b["metrics"][metric]
            if cv != bv:
                won += best(cv, bv) == cv
                lost += best(cv, bv) == bv
        out[metric] = {"won": won, "lost": lost, "pairs": len(change)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout to run in alternating pairs")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()

    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    out = {"label": args.label, "commit": commit, "seeds": args.seeds,
           "seconds": args.seconds, "sides": list(sides), "workloads": {}}
    started = time.time()
    out["fw_counters"] = {name: fw_counters(sides[name], args.seeds[0]) for name in sides}
    print(f"battle-80v82-quad FW counters: {out['fw_counters']}", flush=True)
    if "baseline" in sides:
        out["decision_ab"] = decision_ab(sides["baseline"])
        print("same-process A/B, speed-up of medians: " + ", ".join(
            f"{case} {r['speedup_of_medians']:.3g}" for case, r in out["decision_ab"].items()),
            flush=True)
    for workload in WORKLOADS:
        records = paired_runs(sides, workload, args.seeds, args.seconds, 0)
        traced = paired_runs(sides, workload, args.seeds[:TRACED_SEEDS], args.seconds, 1)
        entry = {name: side(records[name], traced[name]) for name in sides}
        if "baseline" in sides:
            entry["pair_wins"] = pair_wins(records["change"], records["baseline"])
        out["workloads"][workload] = entry
        out["environment"] = records["change"][0]["environment"]
    out["blas_threads"] = out["environment"]["blas_threads"]
    out["wall_s"] = time.time() - started
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
