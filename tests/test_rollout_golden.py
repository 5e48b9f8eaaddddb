"""Golden rollouts: the chunks a one-worker rollout and `train` emit.

Two fixtures in `fixtures/rollout_golden.json` pin the rollout layer:

* `chunks`: one sha256 per case over six chunks of a single
  `RolloutWorker` (per step: the assignment targets, the terminal flag
  and the sampled tables h and g, then the chunk's length and tail
  flag). Cases: `RescueMetaEnv` 2x4 and 8x15 with `lp`, and the test
  suite's `FixedEnv` with `amax`, `lp` and `quad`. These must reproduce
  bit for bit.
* `train`: the chunks `train` hands to `a2c_update` over 3 updates of
  the criterion-8 config (8 workers, 32 chunks per update) on rescue 2x4.
  Targets, terminal flags and chunk lengths must match exactly; the
  sampled h tables within 1e-12, because stacking the scoring rows of
  several workers into one matrix product may round the last bit
  differently.

Regenerate the fixture (only for a deliberate behaviour change) with

    PYTHONPATH=src python tests/test_rollout_golden.py
"""
import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from swarmplan.learn import A2CConfig, RescueMetaEnv, RolloutWorker, train
from swarmplan.nets import init_critic, init_scoring_model
from swarmplan.rescue import RescueConfig
from test_learn import FixedEnv, small_cfg

FIXTURE = Path(__file__).parent / "fixtures" / "rollout_golden.json"
CHUNKS_PER_CASE = 6
TRAIN_A2C = dict(gamma=0.99, sigma=0.4, p=3, n_steps=4, lam=1.0,
                 lr_policy=1e-3, lr_value=3e-3, optimizer="adam",
                 workers=8, batch_chunks=32)
TRAIN_UPDATES = 3
TRAIN_SEED = 200


def _rescue(n, m):
    return RescueMetaEnv(RescueConfig(n, m, seed=0)), A2CConfig(**TRAIN_A2C)


def _fixed():
    return FixedEnv(length=6), small_cfg()


# name -> (env and config factory, inference)
CHUNK_CASES = {
    "rescue-2x4-lp": (lambda: _rescue(2, 4), "lp"),
    "rescue-8x15-lp": (lambda: _rescue(8, 15), "lp"),
    "fixed-amax": (_fixed, "amax"),
    "fixed-lp": (_fixed, "lp"),
    "fixed-quad": (_fixed, "quad"),
}


def chunks_digest(name: str) -> str:
    make, inference = CHUNK_CASES[name]
    env, cfg = make()
    model = init_scoring_model(2, 3, with_g=inference == "quad", seed=7)
    worker = RolloutWorker(env, inference, cfg, np.random.default_rng(11))
    worker.set_model(model)
    digest = hashlib.sha256()

    def absorb(value, dtype=np.float64):
        if value is not None:
            digest.update(np.ascontiguousarray(value, dtype=dtype).tobytes())

    for _ in range(CHUNKS_PER_CASE):
        chunk = worker.collect_chunk()
        for step in chunk.steps:
            absorb(step.assignment.target, np.int64)
            absorb(step.terminal, np.bool_)
            absorb(step.sampled_h)
            absorb(step.sampled_g)
        absorb([len(chunk), chunk.terminal_tail], np.int64)
    return digest.hexdigest()


def train_batches(monkeypatch) -> list:
    """The batches `train` passes to `a2c_update`, as plain lists."""
    train_module = importlib.import_module("swarmplan.learn.train")
    batches = []
    update = train_module.a2c_update

    def recording_update(model, critic, chunks, cfg, policy_opt, value_opt):
        batches.append({
            "targets": [step.assignment.target.tolist()
                        for chunk in chunks for step in chunk.steps],
            "terminal": [[step.terminal for step in chunk.steps] + [chunk.terminal_tail]
                         for chunk in chunks],
            "sampled_h": [step.sampled_h.ravel().tolist()
                          for chunk in chunks for step in chunk.steps],
        })
        return update(model, critic, chunks, cfg, policy_opt, value_opt)

    monkeypatch.setattr(train_module, "a2c_update", recording_update)
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    critic = init_critic(2, 3, seed=1)
    train(model, critic, lambda: RescueMetaEnv(RescueConfig(2, 4, seed=0)), "lp",
          A2CConfig(**TRAIN_A2C), total_updates=TRAIN_UPDATES, seed=TRAIN_SEED)
    return batches


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_one_worker_chunks_match_golden(golden, name):
    assert chunks_digest(name) == golden["chunks"][name]


def test_fixture_covers_every_case(golden):
    assert sorted(golden["chunks"]) == sorted(CHUNK_CASES)


def test_train_batches_match_golden(golden, monkeypatch):
    got = train_batches(monkeypatch)
    want = golden["train"]
    assert len(got) == len(want) == TRAIN_UPDATES
    for batch, ref in zip(got, want):
        assert batch["targets"] == ref["targets"]
        assert batch["terminal"] == ref["terminal"]
        np.testing.assert_allclose(np.concatenate(batch["sampled_h"]),
                                   np.concatenate(ref["sampled_h"]),
                                   rtol=0, atol=1e-12)


if __name__ == "__main__":
    class _Patch:
        def setattr(self, owner, name, value):
            setattr(owner, name, value)

    chunks = {name: chunks_digest(name) for name in sorted(CHUNK_CASES)}
    batches = ",\n  ".join(
        "{" + ",\n   ".join(f"{json.dumps(key)}: {json.dumps(value)}"
                            for key, value in batch.items()) + "}"
        for batch in train_batches(_Patch()))
    FIXTURE.write_text(f'{{"chunks": {json.dumps(chunks, indent=1)},\n'
                       f' "train": [\n  {batches}\n ]\n}}\n')
    print(f"wrote {FIXTURE}")
