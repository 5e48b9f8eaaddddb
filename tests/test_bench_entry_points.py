"""The benchmark's hooks into swarmplan still resolve.

`perfbench/tracing.py` wraps the entry points in `ENTRY_POINTS` by name,
and the workloads in `perfbench/workloads.py` hook two more to time their
operations. A renamed or moved entry point makes the runner exit 2 (a
workload hook) or records it as absent and reads 0 for its layer (a
traced entry point). This module imports perfbench without changing it.
"""
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from swarmplan import harness, learn, nets, rescue

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_HOOKS = ("swarmplan.learn.train:a2c_update",
                  "swarmplan.learn:RolloutWorker.collect_chunk")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_workload_hooks_are_the_known_ones():
    source = (PERFBENCH / "workloads.py").read_text()
    assert set(re.findall(r'_hook\(patches, "([^"]+)"', source)) == set(WORKLOAD_HOOKS)


@pytest.mark.parametrize("spec", WORKLOAD_HOOKS)
def test_workload_hook_resolves(tracing, spec):
    assert tracing._resolve(spec) is not None, spec


def test_every_traced_entry_point_resolves(tracing):
    # The general-mu revised simplex left the package; its hook goes when
    # perfbench is next changed (to swarmplan.assign.network:TransportLp.solve).
    absent = [spec for _, spec in tracing.ENTRY_POINTS if tracing._resolve(spec) is None]
    assert absent == ["swarmplan.assign.simplex:PolytopeLp.solve"]


def test_traced_training_sees_the_rescue_layers(tracing):
    """A traced rescue training run records the env layers it executes;
    its resets spawn into the lanes' shared state and build no
    ConstraintSet, so `rescue.build_constraints` reads 0."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        cfg = learn.A2CConfig(n_steps=4, workers=4, batch_chunks=8)
        learn.train(nets.init_scoring_model(2, 3, with_g=False, seed=0),
                    nets.init_critic(2, 3, seed=1),
                    lambda: learn.RescueMetaEnv(rescue.RescueConfig(2, 4, seed=0)),
                    "lp", cfg, total_updates=1, seed=3)
        tracer.active = False
        tracer.drain()
    finally:
        tracer.remove()
    for name in ("rescue.step", "rescue.extract_features", "learn.a2c_grads",
                 "learn.noise.sample"):
        assert tracer.calls(name) > 0, name
    assert tracer.calls("rescue.build_constraints") == 0


def test_rescue_evaluation_plays_every_chunk_through_the_hook(tracing):
    """The eval workload times `RolloutWorker.collect_chunk`: every chunk
    that `harness.evaluate_rescue_model` plays must pass through it."""
    chunks = []

    def counting(fn):
        def collect_chunk(worker):
            chunk = fn(worker)
            chunks.append(chunk)
            return chunk
        return collect_chunk

    patches = tracing.Patches()
    assert patches.install("swarmplan.learn:RolloutWorker.collect_chunk", counting)
    try:
        seeds = (1000, 1001, 1002)
        summary = harness.evaluate_rescue_model(
            nets.init_scoring_model(2, 3, with_g=False, seed=0), "lp", learn.A2CConfig(),
            3, 5, seeds=seeds)
    finally:
        patches.remove()
    assert sum(chunk.terminal_tail for chunk in chunks) == len(seeds)
    # lengths are reported as completion times, one less than the steps played
    assert sum(len(chunk) for chunk in chunks) == round((summary.mean + 1) * len(seeds))


def test_training_backpropagates_through_the_traced_hook(tracing):
    """The train workload's `nets.backward` layer times
    `score_pairs_backward`: each A2C update calls it once."""
    calls = []

    def counting(fn):
        def score_pairs_backward(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return score_pairs_backward

    patches = tracing.Patches()
    assert patches.install("swarmplan.nets:score_pairs_backward", counting)
    try:
        learn.train(nets.init_scoring_model(2, 3, with_g=False, seed=0),
                    nets.init_critic(2, 3, seed=1),
                    lambda: learn.RescueMetaEnv(rescue.RescueConfig(2, 4, seed=0)),
                    "lp", learn.A2CConfig(n_steps=4, workers=2, batch_chunks=4),
                    total_updates=3, seed=5)
    finally:
        patches.remove()
    assert len(calls) == 3
