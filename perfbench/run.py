#!/usr/bin/env python3
"""swarmplan benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`.
With `--trace 0` the last stdout line is a JSON object whose metrics are
the end-to-end numbers (throughput in the workload's units of work,
tail latency of one operation, set-up time). With `--trace 1` the run
measures untraced for a third of the window, then traced for the rest,
and reports per-layer numbers plus the tracing overhead. Set-up runs
once before measuring and again at even steps through the (untraced)
window; `setup_s` is the fastest of these set-ups (see SETUP_REPEATS).
Human-readable lines before the result give every number under its
workload-specific name, the digest of the outputs and the environment.
A full record goes to `.perfbench/`.
"""
import os

# Pinned before numpy loads: OpenBLAS otherwise starts one thread per core
# and the latency of the BLAS-heavy solver depends on what else runs.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS
# `learn.train` caps its worker count by this variable; cleared, the train
# workload runs the 8 workers of its config.
WORKERS_VAR = "SWARMPLAN_THREADS"
os.environ.pop(WORKERS_VAR, None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Set-ups per run: one before measuring, the rest spread over the window.
# On a shared 2-vCPU x86_64 VM the speed of identical work switches
# between levels up to 1.7x apart for tens of seconds. The median of a
# run's set-ups flips with the share of slow time in the run; the fastest
# stays put. Over two sets of ten runs of the same code there, the median
# of wcnok set-ups drifted 39% and the fastest 0%; for the other
# workloads the fastest drifted at most 9%.
SETUP_REPEATS = 15
TRACE_BASE_SHARE = 1.0 / 3.0   # untraced share of the window in a traced run
OVERRUN_S = 60.0               # a phase stops this long after its window even mid-cycle
FW_CAPTURES = 12               # FW solves whose final gap the traced run evaluates

END_TO_END_UNITS = {"work_per_s": "1/s", "op_tail_ms": "ms", "setup_s": "s"}
PER_LAYER_UNITS = {
    "assign.simplex.solve_ms": "ms/op", "assign.simplex.calls": "calls/op",
    "assign.fw.solve_ms": "ms/op", "assign.fw.iters": "calls/solve",
    "assign.fw.cap_hit_share": "share", "assign.fw.rel_gap_p50": "ratio",
    "assign.round.ms": "ms/op", "assign.polish.ms": "ms/op",
    "assign.decision_objective": "score",
    "nets.score_pairs.ms": "ms/op", "nets.score_pairs.calls_per_step": "calls/step",
    "nets.critic_value.ms": "ms/op", "nets.critic_value.calls_per_step": "calls/step",
    "nets.backward.ms": "ms/op",
    "learn.collect_chunk.ms": "ms/op", "learn.freeze_targets.ms": "ms/op",
    "learn.a2c_grads.self_ms": "ms/op", "learn.optimizer.ms": "ms/op",
    "learn.noise.sample_ms": "ms/op", "learn.skipped_updates": "count",
    "learn.grad_norm_p50": "norm",
    "rescue.step.ms": "ms/op", "rescue.extract_features.ms": "ms/op",
    "rescue.build_constraints.ms": "ms/op",
    "battle.step_battle.ms": "ms/op", "battle.extract_features.ms": "ms/op",
    "battle.build_constraints.ms": "ms/op", "battle.heuristic.ms": "ms/op",
    "harness.eval.self_ms": "ms/op",
    "trace.overhead_ratio": "ratio", "trace.absent_entry_points": "count",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


class Phase:
    """Everything one measuring phase observed."""

    def __init__(self):
        self.busy = 0.0
        self.ops = 0
        self.work = 0
        self.failed = 0
        self.op_ms = []
        self.env_steps = 0
        self.grad_norms = []
        self.skipped = 0
        self.items = 0
        self.item_ms = []   # (busy ms, ops) per item
        self.errors = []

    def tail(self):
        """(value, percentile, samples) of the highest percentile with at least
        ten samples beyond it; the maximum when there are too few samples."""
        data = sorted(self.op_ms)
        k = len(data) - 11 if len(data) > 10 else len(data) - 1
        return data[k], 100.0 * (k + 1) / len(data), len(data)


def timed_setup(wl, setup_times):
    t0 = time.perf_counter()
    wl.setup()
    setup_times.append(time.perf_counter() - t0)


def measure(wl, seconds, digests, objectives, tracer=None, setup_times=None) -> Phase:
    """Repeat the workload's item cycle until `seconds` of busy time are spent
    (the first full cycle always runs). A repeated item must reproduce the
    digest of its first run; a mismatch fails all its operations. With
    `setup_times`, set-up is repeated between items as the window passes,
    and topped up to SETUP_REPEATS at the end; it is not busy time."""
    from workloads import Item

    phase = Phase()
    wall0 = time.perf_counter()
    k = 0
    while k < wl.items or phase.busy < seconds:
        if time.perf_counter() - wall0 > seconds + OVERRUN_S:
            break
        idx = k % wl.items
        k += 1
        t0 = time.perf_counter()
        try:
            item = wl.run_item(idx)
        except Exception:  # the run keeps measuring; the item counts as failed
            phase.errors.append(traceback.format_exc())
            traceback.print_exc(file=sys.stderr)
            item = Item(seconds=time.perf_counter() - t0, ops=1, failed=1)
            item.digest.update(b"raised")
        digest = item.digest.hexdigest()
        if digests.setdefault(idx, digest) != digest:
            phase.errors.append(f"item {idx} did not reproduce its outputs")
            item.failed = item.ops
        if idx not in objectives:
            objectives[idx] = item.objectives
        if tracer is not None:
            tracer.drain()
        phase.items += 1
        phase.item_ms.append((item.seconds * 1e3, item.ops))
        phase.busy += item.seconds
        phase.ops += item.ops
        phase.work += item.ops if item.work is None else item.work
        phase.failed += item.failed
        phase.op_ms += item.op_ms
        phase.env_steps += item.env_steps
        phase.grad_norms += item.grad_norms
        phase.skipped += item.skipped
        if setup_times is not None and len(setup_times) < min(
                SETUP_REPEATS, SETUP_REPEATS * phase.busy / seconds):
            timed_setup(wl, setup_times)
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        timed_setup(wl, setup_times)
    return phase


def end_to_end(phase: Phase, setup_s: float) -> dict:
    tail, _, _ = phase.tail()
    return {
        "work_per_s": phase.work / phase.busy,
        "op_tail_ms": tail,
        "setup_s": setup_s,
    }


def fw_gaps(captured):
    """Relative final FW gap, gap / (1 + |objective|), of each captured solve."""
    from swarmplan import assign

    oracle = getattr(assign, "fw_linear_oracle", None)
    if oracle is None:
        return []
    out = []
    for args, _kwargs, result in captured:
        scores, cons = args[0], args[1]
        beta = result.beta
        r = beta.sum(axis=0)
        grad = scores.h + ((scores.g + scores.g.T) @ r)[None, :]
        vertex = oracle(grad, cons)
        gap = float((grad * (vertex.beta - beta)).sum())
        obj = assign.objective_value(result, scores)
        out.append(gap / (1.0 + abs(obj)))
    return out


def per_layer(tracer, base: Phase, traced: Phase, objectives) -> dict:
    from swarmplan import assign

    ops = max(traced.ops, 1)
    steps = max(traced.env_steps or traced.ops, 1)

    def ms(name):
        return tracer.total_s(name) * 1e3 / ops

    def self_ms(name):
        return tracer.self_s(name) * 1e3 / ops

    with tracer.paused():
        rel_gaps = fw_gaps(tracer.captured.get("assign.fw.solve", []))
    cfg = assign.FwConfig()
    iters = tracer.fw_iters
    cap_hits = [n >= cfg.max_iters and gap > cfg.gap_tol
                for n, gap in zip(iters, rel_gaps)]
    flat = [v for k in sorted(objectives) for v in objectives[k]]
    return {
        "assign.simplex.solve_ms": ms("assign.simplex.solve"),
        "assign.simplex.calls": tracer.calls("assign.simplex.solve") / ops,
        "assign.fw.solve_ms": ms("assign.fw.solve"),
        "assign.fw.iters": statistics.fmean(iters) if iters else 0.0,
        "assign.fw.cap_hit_share": statistics.fmean(cap_hits) if cap_hits else 0.0,
        "assign.fw.rel_gap_p50": statistics.median(rel_gaps) if rel_gaps else 0.0,
        "assign.round.ms": ms("assign.round"),
        "assign.polish.ms": ms("assign.polish"),
        "assign.decision_objective": statistics.fmean(flat) if flat else 0.0,
        "nets.score_pairs.ms": ms("nets.score_pairs"),
        "nets.score_pairs.calls_per_step": tracer.calls("nets.score_pairs") / steps,
        "nets.critic_value.ms": ms("nets.critic_value"),
        "nets.critic_value.calls_per_step": tracer.calls("nets.critic_value") / steps,
        "nets.backward.ms": ms("nets.backward"),
        "learn.collect_chunk.ms": ms("learn.collect_chunk"),
        "learn.freeze_targets.ms": ms("learn.freeze_targets"),
        "learn.a2c_grads.self_ms": self_ms("learn.a2c_grads"),
        "learn.optimizer.ms": ms("learn.optimizer"),
        "learn.noise.sample_ms": ms("learn.noise.sample"),
        "learn.skipped_updates": base.skipped + traced.skipped,
        "learn.grad_norm_p50": (statistics.median(traced.grad_norms)
                                if traced.grad_norms else 0.0),
        "rescue.step.ms": ms("rescue.step"),
        "rescue.extract_features.ms": ms("rescue.extract_features"),
        "rescue.build_constraints.ms": ms("rescue.build_constraints"),
        "battle.step_battle.ms": ms("battle.step_battle"),
        "battle.extract_features.ms": ms("battle.extract_features"),
        "battle.build_constraints.ms": ms("battle.build_constraints"),
        "battle.heuristic.ms": ms("battle.heuristic"),
        "harness.eval.self_ms": self_ms("harness.eval"),
        "trace.overhead_ratio": (statistics.median(traced.op_ms)
                                 / statistics.median(base.op_ms)),
        "trace.absent_entry_points": len(tracer.absent),
    }


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "worker_cap": {WORKERS_VAR: os.environ.get(WORKERS_VAR)},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swarmplan" / "__init__.py").is_file():
        print(f"error: no swarmplan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swarmplan
    if Path(swarmplan.__file__).resolve().parent != SRC / "swarmplan":
        print(f"error: imported swarmplan from {swarmplan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Patches, Tracer
    from workloads import WORKLOADS, MissingEntryPoint

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    patches = Patches()
    try:
        wl = WORKLOADS[args.workload](args.seed, patches)
    except MissingEntryPoint as exc:
        patches.remove()
        print(f"error: entry point {exc} not found; {args.workload} needs it "
              "to time and check its operations", file=sys.stderr)
        return 2
    try:
        setup_times = []
        timed_setup(wl, setup_times)
        digests, objectives = {}, {}
        tracer = None
        if args.trace:
            base = measure(wl, args.seconds * TRACE_BASE_SHARE, digests, objectives,
                           setup_times=setup_times)
            tracer = Tracer(capture={"assign.fw.solve": FW_CAPTURES})
            tracer.install()
            tracer.active = True
            try:
                traced = measure(wl, args.seconds * (1.0 - TRACE_BASE_SHARE),
                                 digests, objectives, tracer)
            finally:
                tracer.active = False
            metrics = per_layer(tracer, base, traced, objectives)
            tracer.remove()
            phases = [base, traced]
        else:
            base = measure(wl, args.seconds, digests, objectives, setup_times=setup_times)
            phases = [base]
    finally:
        patches.remove()
    setup_s = min(setup_times)

    if not base.op_ms or base.busy <= 0:
        print("error: no operation completed; nothing to report", file=sys.stderr)
        return 1
    e2e = end_to_end(base, setup_s)
    if not args.trace:
        metrics = e2e
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    run_digest = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    flat = [v for k in sorted(objectives) for v in objectives[k]]
    derived = dict(e2e, ops_per_s=base.ops / base.busy,
                   op_p50_ms=statistics.median(base.op_ms),
                   env_steps_per_s=base.env_steps / base.busy,
                   decision_objective=statistics.fmean(flat) if flat else math.nan)
    tail, tail_pct, samples = base.tail()
    named = {name: (derived[src], unit) for name, (src, unit) in wl.named.items()}
    named["setup_s"] = (setup_s, "s")
    named["failed_share"] = (failed / max(attempted, 1), "share")

    env = environment()
    print(f"workload {args.workload} seed {args.seed}: {base.ops} {wl.op}s, "
          f"{base.work} {wl.work_unit}s in {base.busy:.2f} s over {base.items} items, "
          f"trace {args.trace}")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  tail = p{tail_pct:.1f} of {samples} {wl.op} latencies: {tail:.4g} ms")
    print(f"  attempted {attempted}, failed {failed}, digest {run_digest[:16]}")
    if tracer is not None:
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {UNITS[name]}")
        for spec in tracer.absent:
            print(f"  absent entry point: {spec}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    for phase in phases:
        for err in phase.errors:
            print(f"  error: {err.strip().splitlines()[-1]}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_times_s": setup_times,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": metrics, "tail_percentile": tail_pct, "latency_samples": samples,
        "attempted": attempted, "failed": failed, "digest": run_digest,
        "op_ms": [round(v, 6) for v in base.op_ms],
        "item_ms": base.item_ms,
        "item_digests": {str(k): v for k, v in sorted(digests.items())},
        "errors": [e for p in phases for e in p.errors],
    }
    if tracer is not None:
        record.update(
            absent_entry_points=tracer.absent,
            span_totals={k: {"calls": c, "total_s": t, "self_s": s}
                         for k, (c, t, s) in sorted(tracer.totals.items())},
            child_calls={f"{p} > {c}": n for (p, c), n in sorted(tracer.children.items())},
            spans_first_item=tracer.kept,
        )
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
