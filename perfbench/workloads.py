"""The four benchmark workloads.

Every workload is a closed loop in one process: each operation starts
when the previous one has finished. A workload is a fixed cycle of
`items` deterministic inputs derived from the workload seed (a training
run, a spawn state, an episode, an evaluation call). The runner repeats
the cycle until the measuring time is spent, always finishing the first
cycle, so every run covers the same distinct inputs and a repeated item
must reproduce its first outputs exactly.

`named` maps the workload's own metric names, printed for people, to
the runner's figures. Throughput counts units of work (`work_unit`): one
per operation, except that wcnok counts whole battles. `run_item`
returns an Item: the operation count, per-operation latencies,
the failed-operation count, the outputs to digest, and the objectives of
the hard assignments it made. Checks run outside the timed sections.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from swarmplan import assign, battle, harness, learn, nets, rescue

# Set-up ends with one warm-up operation on fixed inputs, so set-up time
# does not depend on which inputs a seed draws.
WARMUP_SEED = 0

# The acceptance test's rescue 2x4 training config (criterion 8).
TRAIN_A2C = dict(gamma=0.99, sigma=0.4, p=3, n_steps=4, lam=1.0,
                 lr_policy=1e-3, lr_value=3e-3, optimizer="adam",
                 workers=8, batch_chunks=32)


class MissingEntryPoint(LookupError):
    """A swarmplan entry point that a workload hooks to time and check its
    operations is gone."""


def _hook(patches, spec, make_wrapper):
    if not patches.install(spec, make_wrapper):
        raise MissingEntryPoint(spec)


@dataclass
class Item:
    seconds: float = 0.0
    ops: int = 0
    work: int | None = None   # units of work for throughput; None: one per operation
    failed: int = 0
    op_ms: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    grad_norms: list = field(default_factory=list)
    skipped: int = 0
    env_steps: int = 0

    def add(self, *values):
        for value in values:
            self.digest.update(np.ascontiguousarray(value).tobytes())


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _check_steps(item: Item, chunks) -> int:
    """Count the env steps whose assignment is infeasible under its constraints
    or whose objective or reward is non-finite."""
    failed = 0
    for chunk in chunks:
        for step in chunk.steps:
            table = assign.ScoreTable(step.sampled_h, step.sampled_g)
            objective = assign.objective_value(step.assignment, table)
            failed += not (assign.feasible(step.assignment, step.obs.cons)
                           and _finite(objective, step.reward))
            item.objectives.append(objective)
            item.add(step.assignment.target)
    return failed


class TrainWorkload:
    """`learn.train` with LP inference on rescue 2x4; op = one A2C update."""

    name = "rescue-train-2x4"
    op = work_unit = "update"
    named = {"train_updates_per_s": ("work_per_s", "1/s"),
             "train_env_steps_per_s": ("env_steps_per_s", "1/s")}
    items = 4
    updates_per_item = 24

    def __init__(self, seed: int, patches):
        self.seed = seed
        self.records = []
        _hook(patches, "swarmplan.learn.train:a2c_update", self._record_update)

    def _record_update(self, fn):
        def a2c_update(model, critic, chunks, cfg, policy_opt, value_opt):
            diag = fn(model, critic, chunks, cfg, policy_opt, value_opt)
            self.records.append((time.perf_counter(), diag, chunks))
            return diag
        return a2c_update

    def _factory(self):
        return learn.RescueMetaEnv(rescue.RescueConfig(2, 4, seed=0))

    def setup(self):
        self.cfg = learn.A2CConfig(**TRAIN_A2C)
        self.model0 = nets.init_scoring_model(2, 3, with_g=False, seed=0)
        self.critic0 = nets.init_critic(2, 3, seed=1)
        learn.train(self.model0.copy(), self.critic0.copy(), self._factory, "lp",
                    self.cfg, total_updates=1, seed=WARMUP_SEED)
        self.records.clear()

    def run_item(self, k: int) -> Item:
        item = Item()
        model, critic = self.model0.copy(), self.critic0.copy()
        self.records.clear()
        start = time.perf_counter()
        result = learn.train(model, critic, self._factory, "lp", self.cfg,
                             total_updates=self.updates_per_item,
                             seed=self.seed * 1000 + k)
        item.seconds = time.perf_counter() - start
        last = start
        for stamp, diag, chunks in self.records:
            item.op_ms.append((stamp - last) * 1e3)
            last = stamp
            item.ops += 1
            bad_steps = _check_steps(item, chunks)
            item.failed += bool(diag.skipped or bad_steps or not _finite(
                diag.value_loss, diag.policy_loss, diag.grad_norm))
            item.skipped += bool(diag.skipped)
            item.grad_norms.append(diag.grad_norm)
        item.env_steps = result.env_steps
        for net in (model.h_net, critic.embed_net, critic.head_net):
            item.add(nets.params_to_vector(net))
        return item


class QuadWorkload:
    """One `quad` decision per m80v82 spawn state; op = one decision."""

    name = "battle-80v82-quad"
    op = work_unit = "decision"
    named = {"decision_p50_ms": ("op_p50_ms", "ms"),
             "decision_tail_ms": ("op_tail_ms", "ms"),
             "decision_objective": ("decision_objective", "score")}
    items = 32

    def __init__(self, seed: int, patches):
        self.seed = seed

    def setup(self):
        self.states = [battle.spawn_battle(battle.load_scenario("m80v82", seed=self.seed * 1000 + k))
                       for k in range(self.items)]
        agents, tasks, extras = battle.extract_battle_features(self.states[0])
        self.model = nets.init_scoring_model(agents.shape[1], tasks.shape[1],
                                             pair_extra_dim=extras.shape[-1],
                                             with_g=True, seed=0)
        self.infer = assign.get_procedure("quad")
        self._decide(battle.spawn_battle(battle.load_scenario("m80v82", seed=WARMUP_SEED)))

    def _decide(self, state):
        agents, tasks, extras = battle.extract_battle_features(state)
        cons = battle.build_battle_constraints(state)
        table = nets.score_pairs(self.model, agents, tasks, pair_extras=extras)
        return self.infer(table, cons), table, cons

    def run_item(self, k: int) -> Item:
        item = Item()
        start = time.perf_counter()
        decision, table, cons = self._decide(self.states[k])
        item.seconds = time.perf_counter() - start
        item.op_ms.append(item.seconds * 1e3)
        item.ops = 1
        objective = assign.objective_value(decision, table)
        item.failed = not (assign.feasible(decision, cons) and _finite(objective))
        item.objectives.append(objective)
        item.add(decision.target)
        return item


def _no_overkill_ok(state, target) -> bool:
    """The wcnok contract: targets are -1 or living enemies, and per enemy the
    booked damage minus its largest single attacker stays below its health."""
    booked, largest = {}, {}
    for i, j in enumerate(target):
        j = int(j)
        if j == assign.UNASSIGNED:
            continue
        if not (0 <= j < len(state.theirs)) or not state.theirs[j].alive:
            return False
        dmg = state.ours[i].spec.damage_per_attack
        booked[j] = booked.get(j, 0.0) + dmg
        largest[j] = max(largest.get(j, 0.0), dmg)
    return all(booked[j] - largest[j] < state.theirs[j].health for j in booked)


class WcnokWorkload:
    """Whole m80v82 episodes through `BattleMetaEnv` with the wcnok heuristic;
    op = one assignment window (heuristic + sim step + observation).

    Throughput counts battles, not windows: a battle's time varies little
    between scenario seeds, while its window count (42-67) does, and the
    late windows of a long battle are cheap, so windows/s moves with the
    seed."""

    name = "battle-80v82-wcnok"
    op = "window"
    work_unit = "battle"
    named = {"battles_per_s": ("work_per_s", "1/s"),
             "battle_windows_per_s": ("ops_per_s", "1/s")}
    items = 4

    def __init__(self, seed: int, patches):
        self.seed = seed

    def setup(self):
        self.configs = [battle.load_scenario("m80v82", seed=self.seed * 1000 + k)
                        for k in range(self.items)]
        env = learn.BattleMetaEnv(battle.load_scenario("m80v82", seed=WARMUP_SEED))
        env.reset(seed=WARMUP_SEED)
        env.step(battle.heuristic_policy("wcnok")(env.state))

    def run_item(self, k: int) -> Item:
        item = Item()
        checking = 0.0
        start = time.perf_counter()
        env = learn.BattleMetaEnv(self.configs[k])
        env.reset(seed=self.configs[k].seed)
        policy = battle.heuristic_policy("wcnok")
        done = False
        while not done:
            t0 = time.perf_counter()
            decision = policy(env.state)
            t1 = time.perf_counter()
            ok = _no_overkill_ok(env.state, decision.target)
            t2 = time.perf_counter()
            _, reward, done = env.step(decision)
            t3 = time.perf_counter()
            checking += t2 - t1
            item.op_ms.append((t3 - t0 - (t2 - t1)) * 1e3)
            item.ops += 1
            item.failed += not (ok and _finite(reward))
            item.add(decision.target)
        item.seconds = time.perf_counter() - start - checking
        item.work = 1
        state = env.state
        item.add(np.array([state.frame, ("win", "loss", "draw").index(state.outcome)]))
        return item


class EvalWorkload:
    """Zero-shot `harness.evaluate_rescue_model` at 8x15 with LP, a fixed random
    model and noise on; op = one env step. Step latency is taken per episode
    (its collected chunks' time over its steps): single chunks of 4 steps
    are too short to time steadily."""

    name = "rescue-eval-8x15"
    op = work_unit = "env step"
    named = {"eval_env_steps_per_s": ("work_per_s", "1/s")}
    items = 8
    episodes_per_item = 4

    def __init__(self, seed: int, patches):
        self.seed = seed
        self.chunks = []
        _hook(patches, "swarmplan.learn:RolloutWorker.collect_chunk", self._record_chunk)

    def _record_chunk(self, fn):
        def collect_chunk(worker):
            start = time.perf_counter()
            chunk = fn(worker)
            self.chunks.append((time.perf_counter() - start, chunk))
            return chunk
        return collect_chunk

    def setup(self):
        self.a2c = learn.A2CConfig(**TRAIN_A2C)
        self.model = nets.init_scoring_model(2, 3, with_g=False, seed=0)
        harness.evaluate_rescue_model(self.model, "lp", self.a2c, 8, 15,
                                      seeds=(WARMUP_SEED,))
        self.chunks.clear()

    def run_item(self, k: int) -> Item:
        item = Item()
        base = self.seed * 1000 + self.episodes_per_item * k
        seeds = tuple(range(base, base + self.episodes_per_item))
        self.chunks.clear()
        start = time.perf_counter()
        summary = harness.evaluate_rescue_model(self.model, "lp", self.a2c, 8, 15, seeds=seeds)
        item.seconds = time.perf_counter() - start
        episode_s, episode_steps = 0.0, 0
        for seconds, chunk in self.chunks:
            episode_s += seconds
            episode_steps += len(chunk)
            if chunk.terminal_tail:
                item.op_ms.append(episode_s * 1e3 / episode_steps)
                item.ops += episode_steps
                episode_s, episode_steps = 0.0, 0
        item.failed = _check_steps(item, [chunk for _, chunk in self.chunks])
        item.add(np.array([summary.mean, summary.failures]))
        return item


WORKLOADS = {w.name: w for w in (TrainWorkload, QuadWorkload, WcnokWorkload, EvalWorkload)}
