"""In-memory span recording around swarmplan's public entry points.

Entry points are wrapped from the outside: the original object is looked
up through its public module, then every loaded `swarmplan` module
attribute (or class attribute, for methods) that refers to that object
is replaced by a wrapper. This patches each name where its caller looks
it up, including aliases such as `learn.rollout.rescue_step`. An entry
point that cannot be found is recorded as absent instead of failing, so
the benchmark survives refactors that delete it.

A span is (name, start, end, parent index). Spans are aggregated per
name after each benchmark item, which keeps memory flat on long runs;
the spans of the first traced item are kept verbatim for the run record.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (span name, "module:attribute" or "module:Class.method")
ENTRY_POINTS = (
    ("assign.simplex.solve", "swarmplan.assign.simplex:PolytopeLp.solve"),
    ("assign.fw.solve", "swarmplan.assign:quad_relax_solve"),
    ("assign.round", "swarmplan.assign:greedy_round"),
    ("assign.polish", "swarmplan.assign:polish_assignment"),
    ("nets.score_pairs", "swarmplan.nets:score_pairs"),
    ("nets.critic_value", "swarmplan.nets:critic_value"),
    ("nets.backward", "swarmplan.nets:score_pairs_backward"),
    ("nets.backward", "swarmplan.nets:critic_backward"),
    ("learn.collect_chunk", "swarmplan.learn:RolloutWorker.collect_chunk"),
    ("learn.freeze_targets", "swarmplan.learn:freeze_targets"),
    ("learn.a2c_grads", "swarmplan.learn:a2c_grads"),
    ("learn.optimizer", "swarmplan.learn:AdamOptimizer.step"),
    ("learn.optimizer", "swarmplan.learn:SgdOptimizer.step"),
    ("learn.noise.sample", "swarmplan.learn:NoiseWindows.sample"),
    ("rescue.step", "swarmplan.rescue:step"),
    ("rescue.extract_features", "swarmplan.rescue:extract_features"),
    ("rescue.build_constraints", "swarmplan.rescue:build_constraints"),
    ("battle.step_battle", "swarmplan.battle:step_battle"),
    ("battle.extract_features", "swarmplan.battle:extract_battle_features"),
    ("battle.build_constraints", "swarmplan.battle:build_battle_constraints"),
    ("battle.heuristic", "swarmplan.battle:weakest_closest_no_overkill"),
    ("harness.eval", "swarmplan.harness:evaluate_rescue_model"),
)

KEEP_SPANS = 20_000  # verbatim spans kept for the run record


def _resolve(spec):
    """(owner, attribute, original) for a spec, or None when absent."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Patches:
    """Replace an entry point wherever swarmplan refers to it; undo in LIFO order."""

    def __init__(self):
        self._undo = []

    def install(self, spec, make_wrapper) -> bool:
        found = _resolve(spec)
        if found is None:
            return False
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):  # method: patch the class attribute
            self._set(owner, attr, wrapper, original)
            return True
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "swarmplan" or name.startswith("swarmplan.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper, original)
        return True

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def remove(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


class Tracer:
    """Records spans for the wrapped entry points while active."""

    def __init__(self, capture=None):
        self.patches = Patches()
        self.capture = dict(capture or {})  # name -> how many (args, kwargs, result) to keep
        self.captured = {name: [] for name in self.capture}
        self.absent = []
        self.active = False
        self._names, self._starts, self._ends, self._parents = [], [], [], []
        self._stack = []
        self.kept = []       # verbatim spans of the first drained batch
        self.totals = {}     # name -> [calls, total s, self s]
        self.children = {}   # (parent name, child name) -> child calls
        self.fw_iters = []   # simplex calls inside each FW solve

    def install(self):
        for name, spec in ENTRY_POINTS:
            if not self.patches.install(spec, lambda fn, name=name: self._wrap(name, fn)):
                self.absent.append(spec)

    def remove(self):
        self.patches.remove()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self._names)
            self._names.append(name)
            self._starts.append(time.perf_counter())
            self._ends.append(0.0)
            self._parents.append(self._stack[-1] if self._stack else -1)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._ends[idx] = time.perf_counter()
            kept = self.captured.get(name)
            if kept is not None and len(kept) < self.capture[name]:
                kept.append((args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def drain(self):
        """Fold the recorded spans into per-name totals and clear them."""
        names, starts, ends, parents = self._names, self._starts, self._ends, self._parents
        child_time = [0.0] * len(names)
        child_fw = {}
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += ends[i] - starts[i]
                key = (names[parent], names[i])
                self.children[key] = self.children.get(key, 0) + 1
                if names[parent] == "assign.fw.solve" and names[i] == "assign.simplex.solve":
                    child_fw[parent] = child_fw.get(parent, 0) + 1
        for i, name in enumerate(names):
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            dur = ends[i] - starts[i]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_time[i]
            if name == "assign.fw.solve":
                self.fw_iters.append(child_fw.get(i, 0))
        if not self.kept and names:
            t0 = starts[0]
            self.kept = [[names[i], round(starts[i] - t0, 9), round(ends[i] - t0, 9), parents[i]]
                         for i in range(min(len(names), KEEP_SPANS))]
        self._names, self._starts, self._ends, self._parents = [], [], [], []

    def calls(self, name) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]
