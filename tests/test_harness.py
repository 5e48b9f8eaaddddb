"""Tests for configuration, evaluation sets, sweeps and the CLI."""
import dataclasses
import json
import struct

import numpy as np
import pytest

from swarmplan.battle import load_scenario
from swarmplan.battle.sim import SCENARIO_DIR
from swarmplan.harness import (
    RESCUE_EVAL_SEEDS,
    EvalSummary,
    ExperimentConfig,
    HarnessError,
    SweepSpec,
    evaluate,
    evaluate_rescue_reference,
    generalization_sweep,
    hyperparameter_search,
    improvement,
    load_experiment,
    load_sweep,
    oracle_report,
    parse_rescue_size,
    run_experiment,
    sample_config,
    save_experiment,
)
from swarmplan.harness.cli import main
from swarmplan.learn import A2CConfig, BattleMetaEnv
from swarmplan.nets import init_critic, init_scoring_model, save_arrays, save_models
from test_battle import malformed_spec_files

SMALL_SEEDS = tuple(range(2000, 2010))


def small_experiment(**kw):
    base = dict(environment="rescue", scenario="2x4", inference="lp",
                a2c=A2CConfig(workers=1, batch_chunks=2),
                eval_seeds=SMALL_SEEDS, output_dir="unused",
                total_updates=0, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_parse_rescue_size():
    assert parse_rescue_size("2x4") == (2, 4)
    assert parse_rescue_size("8x15") == (8, 15)
    for bad in ("2x", "x4", "2x4x6", "ax4", "0x4", "m5v5"):
        with pytest.raises(HarnessError):
            parse_rescue_size(bad)


def test_experiment_config_validation():
    with pytest.raises(HarnessError):
        small_experiment(environment="factory")
    with pytest.raises(HarnessError):
        small_experiment(inference="milp")
    with pytest.raises(HarnessError):
        small_experiment(scenario="nope")
    with pytest.raises(HarnessError):
        small_experiment(eval_seeds=())
    with pytest.raises(HarnessError):
        small_experiment(total_updates=-1)


def test_experiment_json_round_trip(tmp_path):
    cfg = small_experiment(total_updates=7, eval_every=2)
    path = tmp_path / "config.json"
    save_experiment(path, cfg)
    loaded = load_experiment(path)
    assert loaded == cfg


def test_experiment_rejects_wrong_schema_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99, "experiment": {}}))
    with pytest.raises(HarnessError):
        load_experiment(path)


def test_config_files_with_unknown_keys_fail_cleanly(tmp_path, capsys):
    path = tmp_path / "config.json"
    save_experiment(path, small_experiment(output_dir=str(tmp_path / "run")))
    doc = json.loads(path.read_text())
    doc["experiment"]["a2c"]["noise_mode"] = "innovation"  # written before it was removed
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 2
    assert "noise_mode" in capsys.readouterr().err
    doc["experiment"]["a2c"].pop("noise_mode")
    doc["experiment"]["eval_seed"] = [1]
    path.write_text(json.dumps(doc))
    with pytest.raises(HarnessError, match="eval_seed"):
        load_experiment(path)
    doc["experiment"].pop("eval_seed")
    doc["sweep"] = {"sample": 2}
    path.write_text(json.dumps(doc))
    with pytest.raises(HarnessError, match="sample"):
        load_sweep(path)


def _saved_config(tmp_path):
    path = tmp_path / "config.json"
    save_experiment(path, small_experiment(output_dir=str(tmp_path / "run")))
    return path, json.loads(path.read_text())


def test_config_files_missing_experiment_keys_fail_cleanly(tmp_path, capsys):
    path, saved = _saved_config(tmp_path)
    for key in ("environment", "scenario", "inference"):
        doc = json.loads(json.dumps(saved))
        doc["experiment"].pop(key)
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: missing experiment keys: {key}\n"
    # a file that is not JSON, or no file at all
    for text in (json.dumps(saved)[:-9], "[1, 2]"):
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_config_files_with_out_of_range_a2c_values_fail_cleanly(tmp_path, capsys):
    path, doc = _saved_config(tmp_path)
    doc["experiment"]["a2c"]["gamma"] = 1.5
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: a2c: gamma must be in [0, 1)\n"


def test_sweep_file_takes_the_environment_sigma_default(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    for environment, scenario, sigma_high in (("rescue", "2x4", 2.0),
                                              ("battle", "m5v5", 3.0)):
        experiment = small_experiment(environment=environment, scenario=scenario)
        path.write_text(json.dumps({"version": 1, "sweep": {"samples": 2},
                                    "experiment": experiment.to_dict()}))
        spec, base = load_sweep(path)
        assert spec == SweepSpec(samples=2) and base == experiment
        rng = np.random.default_rng(3)
        sigmas = [sample_config(base.environment, base.a2c, rng).sigma for _ in range(200)]
        assert sigma_high - 0.1 < max(sigmas) <= sigma_high
    # the laws are constants: a file that sets one is rejected
    path.write_text(json.dumps({"version": 1, "sweep": {"samples": 2, "sigma_high": 3.0},
                                "experiment": experiment.to_dict()}))
    assert_cli_error(capsys, "sweep", "--spec", str(path), says="unknown sweep keys: sigma_high")


def test_sweep_spec_validation_and_environment_defaults():
    assert [f.name for f in dataclasses.fields(SweepSpec)] == [
        "samples", "seed", "budget_updates"]
    with pytest.raises(HarnessError):
        SweepSpec(samples=0)
    with pytest.raises(HarnessError):
        SweepSpec(budget_updates=-1)
    for environment, sigma_high in (("rescue", 2.0), ("battle", 3.0)):
        rng = np.random.default_rng(4)
        draws = [sample_config(environment, A2CConfig(), rng) for _ in range(200)]
        assert 0.1 <= min(c.sigma for c in draws)
        assert sigma_high - 0.1 < max(c.sigma for c in draws) <= sigma_high


# ---------------------------------------------------------------------------
# sampling laws


def test_sample_config_identical_seed_identical_draws():
    base = A2CConfig()
    a = [sample_config("rescue", base, np.random.default_rng(5)) for _ in range(3)]
    b = [sample_config("rescue", base, np.random.default_rng(5)) for _ in range(3)]
    assert a[0] == b[0]  # first draw matches exactly


def test_sampled_learning_rates_span_three_orders_of_magnitude():
    rng = np.random.default_rng(0)
    lrs = [sample_config("rescue", A2CConfig(), rng).lr_value for _ in range(100)]
    assert max(lrs) / min(lrs) >= 1e3
    assert all(10.0 ** -5 <= lr <= 1.0 for lr in lrs)


def test_sample_config_respects_ranges():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cfg = sample_config("rescue", A2CConfig(), rng)
        assert 0.1 <= cfg.sigma <= 2.0
        assert 1 <= cfg.p <= 10
        assert 2 <= cfg.n_steps <= 10
        assert 1e-3 <= cfg.lam <= 1e3
        assert cfg.optimizer in ("sgd", "adam")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_reference_is_idempotent():
    a = evaluate_rescue_reference("closest", 2, 4, seeds=SMALL_SEEDS)
    b = evaluate_rescue_reference("closest", 2, 4, seeds=SMALL_SEEDS)
    assert a == b
    assert a.metric == "episode_length" and a.episodes == len(SMALL_SEEDS)


def test_topline_never_beaten_by_baseline_on_shared_seeds():
    base = evaluate_rescue_reference("closest", 2, 4, seeds=SMALL_SEEDS)
    top = evaluate_rescue_reference("topline", 2, 4, seeds=SMALL_SEEDS)
    assert top.mean <= base.mean


def test_evaluate_model_dispatch_and_idempotence():
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    a = evaluate(model, "rescue", "2x4", SMALL_SEEDS, inference="lp")
    b = evaluate(model, "rescue", "2x4", SMALL_SEEDS, inference="lp")
    assert a == b
    assert a.failures == 0


def test_evaluate_rejects_mismatched_checkpoint():
    wrong = init_scoring_model(5, 5, with_g=False, seed=0)
    with pytest.raises(HarnessError):
        evaluate(wrong, "rescue", "2x4", SMALL_SEEDS, inference="lp")
    no_g = init_scoring_model(2, 3, with_g=False, seed=0)
    with pytest.raises(HarnessError):
        evaluate(no_g, "rescue", "2x4", SMALL_SEEDS, inference="quad")


def test_rescue_eval_seed_constants():
    assert len(RESCUE_EVAL_SEEDS) == 1000
    assert RESCUE_EVAL_SEEDS[0] == 2000 and RESCUE_EVAL_SEEDS[-1] == 2999


def test_oracle_report_shape():
    report = oracle_report(2, 4, seed=3)
    assert set(report) == {"seed", "size", "routes", "makespan", "completion_time"}
    assert sorted(v for route in report["routes"] for v in route) == [0, 1, 2, 3]
    assert report["completion_time"] == report["makespan"] - 1


# ---------------------------------------------------------------------------
# sweeps


def test_improvement_formula_and_baseline_row():
    assert improvement(10.0, 8.0) == pytest.approx(20.0)
    assert improvement(10.0, 10.0) == 0.0
    with pytest.raises(HarnessError):
        improvement(0.0, 1.0)


def test_battle_evaluation_plays_the_given_seeds():
    env = BattleMetaEnv(load_scenario("m5v5"))
    obs = env.reset(seed=0)
    model = init_scoring_model(obs.agent_feats.shape[1], obs.task_feats.shape[1],
                               pair_extra_dim=obs.pair_extras.shape[-1],
                               with_g=False, seed=0)
    for policy in ("c", model):
        spread = evaluate(policy, "battle", "m5v5", [5000, 5007]).to_dict()
        assert spread != evaluate(policy, "battle", "m5v5", [5000, 5001]).to_dict()
    # Pinned summaries of the contiguous seed range 5003-5005.
    seeds = range(5003, 5006)
    heuristic = evaluate("c", "battle", "m5v5", seeds)
    assert heuristic.mean == pytest.approx(-0.11 / 3, abs=1e-12)
    assert heuristic.extra["win_rate"] == pytest.approx(2 / 3)
    learned = evaluate(model, "battle", "m5v5", seeds)
    assert learned.mean == pytest.approx(-0.34, abs=1e-12)
    assert learned.extra["win_rate"] == 0.0


def test_generalization_sweep_baseline_rows_have_zero_delta(tmp_path):
    csv_path = tmp_path / "table.csv"
    rows = generalization_sweep("closest", "rescue", ["2x4", "3x5"],
                                SMALL_SEEDS, csv_path=csv_path)
    assert [row["scenario"] for row in rows] == ["2x4", "3x5"]
    for row in rows:
        assert row["delta_percent"] == pytest.approx(0.0)
    assert csv_path.read_text().splitlines()[0].startswith("scenario,")


def test_generalization_sweep_same_model_across_sizes():
    model = init_scoring_model(2, 3, with_g=False, seed=1)
    rows = generalization_sweep(model, "rescue", ["2x4", "3x5"],
                                tuple(range(2000, 2004)))
    assert len(rows) == 2
    assert all(np.isfinite(row["method_mean"]) for row in rows)


def test_run_experiment_persists_run_directory(tmp_path):
    cfg = small_experiment(output_dir=str(tmp_path / "run"), total_updates=1,
                           eval_seeds=tuple(range(2000, 2003)))
    result, summary = run_experiment(cfg)
    assert result.updates == 1
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert {"config.json", "checkpoint.bin", "metrics.csv", "VERSION",
            "eval.json"} <= names


def test_hyperparameter_search_runs_and_ranks(tmp_path):
    spec = SweepSpec(samples=2, seed=0, budget_updates=0)
    base = small_experiment(output_dir=str(tmp_path / "sweep"),
                            eval_seeds=tuple(range(2000, 2003)))
    ranked = hyperparameter_search(spec, base)
    assert len(ranked) == 2
    scored = [r for r in ranked if "score" in r]
    assert scored == sorted(scored, key=lambda r: r["score"])
    assert (tmp_path / "sweep" / "sweep_results.json").exists()
    assert (tmp_path / "sweep" / "run_000" / "config.json").exists()


def test_hyperparameter_search_records_failures_and_continues(tmp_path, monkeypatch):
    import swarmplan.harness.sweep as sweep_mod
    calls = {"k": 0}
    real = sweep_mod.run_experiment

    def flaky(config, **kw):
        calls["k"] += 1
        if calls["k"] == 1:
            raise RuntimeError("boom")
        return real(config, **kw)

    monkeypatch.setattr(sweep_mod, "run_experiment", flaky)
    spec = SweepSpec(samples=2, seed=0, budget_updates=0)
    base = small_experiment(output_dir=str(tmp_path / "sweep"),
                            eval_seeds=tuple(range(2000, 2003)))
    ranked = sweep_mod.hyperparameter_search(spec, base)
    errors = [r for r in ranked if "error" in r]
    assert len(errors) == 1 and "boom" in errors[0]["error"]
    assert len(ranked) == 2


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_cli_oracle(capsys):
    code, out = run_cli(capsys, "oracle", "--env", "rescue", "--size", "2x4",
                        "--seed", "3")
    assert code == 0 and out["size"] == "2x4" and out["makespan"] >= 1


def assert_cli_error(capsys, *argv, says=""):
    """The command exits 2 with one `error: ...` line and no traceback."""
    assert main(list(argv)) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: " + says), argv
    assert captured.err.count("\n") == 1, argv


def test_cli_oracle_rejects_battle(capsys):
    assert_cli_error(capsys, "oracle", "--env", "battle", "--size", "2x4", "--seed", "0")
    # beyond the exact solver's 8x15 budget
    for size in ("9x4", "2x16"):
        assert_cli_error(capsys, "oracle", "--size", size, "--seed", "0")


def test_cli_eval_checkpoint(tmp_path, capsys):
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    critic = init_critic(2, 3, seed=1)
    ckpt = tmp_path / "model.bin"
    save_models(ckpt, model, critic)
    seeds_file = tmp_path / "seeds.json"
    seeds_file.write_text(json.dumps(list(range(2000, 2004))))
    code, out = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                        "--scenario", "2x4", "--seeds-file", str(seeds_file))
    assert code == 0
    assert out["episodes"] == 4 and out["metric"] == "episode_length"
    # broken checkpoints exit 2 with one error line
    whole = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", whole[:4])
    header = json.loads(whole[4:4 + hlen])
    no_arrays = json.dumps({k: v for k, v in header.items() if k != "arrays"}).encode()
    no_dims = json.dumps({**header, "meta": {"has_g": False}}).encode()
    # Negative dimensions once read as empty arrays: an h_net with no hidden units.
    no_hidden = json.dumps({**header, "arrays": [
        {"name": "h_net.layer0.W", "shape": [-1, 5]}, {"name": "h_net.layer0.b", "shape": [-1]},
        {"name": "h_net.layer1.W", "shape": [1, -1]}, {"name": "h_net.layer1.b", "shape": [1]},
        *header["arrays"][6:]]}).encode()
    float_dim = json.dumps(header).replace("[32]", "[32.0]", 1).encode()
    broken = {
        "truncated": whole[:-5],
        "no arrays": struct.pack("<I", len(no_arrays)) + no_arrays,
        "no feature dims": struct.pack("<I", len(no_dims)) + no_dims + whole[4 + hlen:],
        "negative dims": struct.pack("<I", len(no_hidden)) + no_hidden + whole[4 + hlen:],
        "non-integer dim": struct.pack("<I", len(float_dim)) + float_dim + whole[4 + hlen:],
        "bytes after the last array": whole + bytes(4),
    }
    for name, raw in broken.items():
        ckpt.write_bytes(raw)
        assert main(["eval", "--checkpoint", str(ckpt), "--scenario", "2x4"]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), name
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.bin"),
                 "--scenario", "2x4"]) == 2
    assert "missing.bin" in capsys.readouterr().err
    # malformed seeds files and unknown battle scenarios exit 2 as well
    save_models(ckpt, model, critic)
    for text in ("[2000, 20", '[1, "x"]'):  # not JSON; not integers
        seeds_file.write_text(text)
        assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--scenario", "2x4",
                         "--seeds-file", str(seeds_file))
    assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--env", "battle",
                     "--scenario", "nosuch")


def test_cli_eval_rejects_malformed_weights(tmp_path, capsys):
    """Checkpoints whose weights are not finite, whose layers do not chain
    or whose feature widths disagree with h_net exit 2 like other
    malformed files."""
    ckpt = tmp_path / "model.bin"
    model = init_scoring_model(2, 3, with_g=False, seed=0)
    model.h_net.layers[0][0][1, 2] = np.inf
    save_models(ckpt, model)
    assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--scenario", "2x4",
                     says="non-finite weights in h_net.layer0.W")
    meta = {"feature_dim_agent": 2, "feature_dim_task": 3, "pair_extra_dim": 0}
    save_arrays(ckpt, {"h_net.layer0.W": np.zeros((4, 5)), "h_net.layer0.b": np.zeros(4),
                       "h_net.layer1.W": np.zeros((1, 3)), "h_net.layer1.b": np.zeros(1)},
                meta)
    assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--scenario", "2x4",
                     says="bad checkpoint: layer 1 input 3 != previous output")
    save_models(ckpt, init_scoring_model(2, 3, with_g=False, seed=0),
                extra_meta={"feature_dim_agent": 4})
    assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--scenario", "2x4",
                     says="bad checkpoint: h_net expects input 5, features give 7")


def test_cli_eval_default_seeds_follow_the_environment(tmp_path, capsys, monkeypatch):
    """Without --seeds-file, rescue plays the rescue evaluation set and
    battle the 100 battles from 5000 that `battle-bench` plays."""
    import swarmplan.harness.cli as cli
    seen = []

    class Summary:
        def to_dict(self):
            return {}

    def recording_evaluate(policy, environment, scenario, seeds, **kw):
        seen.append((environment, list(seeds)))
        return Summary()

    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    ckpt = tmp_path / "model.bin"
    save_models(ckpt, init_scoring_model(2, 3, with_g=False, seed=0))
    assert main(["eval", "--checkpoint", str(ckpt), "--scenario", "2x4"]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--scenario", "m5v5",
                 "--env", "battle"]) == 0
    capsys.readouterr()
    assert seen == [("rescue", list(RESCUE_EVAL_SEEDS)), ("battle", list(range(5000, 5100)))]


def test_cli_train_and_battle_bench(tmp_path, capsys):
    cfg = small_experiment(output_dir=str(tmp_path / "run"), total_updates=1,
                           eval_seeds=tuple(range(2000, 2003)))
    cfg_path = tmp_path / "config.json"
    save_experiment(cfg_path, cfg)
    code, out = run_cli(capsys, "train", "--config", str(cfg_path))
    assert code == 0 and out["updates"] == 1

    code, out = run_cli(capsys, "battle-bench", "--scenario", "m5v5",
                        "--policy", "c", "--episodes", "3")
    assert code == 0 and out["metric"] == "return" and 0 <= out["win_rate"] <= 1
    assert_cli_error(capsys, "battle-bench", "--scenario", "nosuch", "--policy", "c")
    for episodes in ("0", "-3"):
        assert_cli_error(capsys, "battle-bench", "--scenario", "m5v5", "--policy", "c",
                         "--episodes", episodes)


def test_cli_malformed_scenario_files_exit_2(tmp_path, capsys):
    """A scenario file that is not JSON, is not a JSON object, lacks a
    spec field or holds a malformed one exits 2 with one error line, in
    battle-bench and eval."""
    good = json.loads((SCENARIO_DIR / "m5v5.json").read_text())
    no_damage = {**good, "specs": {"marine": {
        k: v for k, v in good["specs"]["marine"].items() if k != "damage_per_attack"}}}
    ckpt = tmp_path / "model.bin"
    save_models(ckpt, init_scoring_model(2, 3, with_g=False, seed=0))
    scenario = tmp_path / "scenario.json"
    for text in ('{"version": 1, "specs"', "[1, 2]", json.dumps(no_damage),
                 *malformed_spec_files()):
        scenario.write_text(text)
        assert_cli_error(capsys, "battle-bench", "--scenario", str(scenario),
                         "--policy", "wcnok", "--episodes", "1")
        assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--env", "battle",
                         "--scenario", str(scenario))


def test_cli_battle_bench_checks_the_checkpoint_like_eval(tmp_path, capsys):
    ckpt = tmp_path / "rescue.bin"
    save_models(ckpt, init_scoring_model(2, 3, with_g=False, seed=0),
                init_critic(2, 3, seed=1))
    says = "checkpoint expects features (2, 3, 0), scenario provides (8, 8, 2)"
    assert_cli_error(capsys, "battle-bench", "--scenario", "m5v5", "--policy",
                     "checkpoint", "--checkpoint", str(ckpt), "--episodes", "2", says=says)
    assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--env", "battle",
                     "--scenario", "m5v5", says=says)


def test_cli_negative_seeds_fail_cleanly(tmp_path, capsys):
    assert_cli_error(capsys, "oracle", "--size", "2x4", "--seed", "-1",
                     says="seed must be >= 0")
    assert_cli_error(capsys, "battle-bench", "--scenario", "m5v5", "--policy", "wcnok",
                     "--episodes", "1", "--seed-base", "-3", says="seed must be >= 0")
    ckpt = tmp_path / "model.bin"
    save_models(ckpt, init_scoring_model(2, 3, with_g=False, seed=0),
                init_critic(2, 3, seed=1))
    seeds_file = tmp_path / "seeds.json"
    for seeds in ([-1], [2000, -5]):
        seeds_file.write_text(json.dumps(seeds))
        assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--scenario", "2x4",
                         "--seeds-file", str(seeds_file), says=f"seeds file {seeds_file}")
    path, saved = _saved_config(tmp_path)
    for key, value in (("seed", -1), ("eval_seeds", [2000, -4])):
        doc = json.loads(json.dumps(saved))
        doc["experiment"][key] = value
        path.write_text(json.dumps(doc))
        assert_cli_error(capsys, "train", "--config", str(path),
                         says="seed and eval_seeds must be >= 0")


def test_cli_non_integer_seeds_fail_cleanly(tmp_path, capsys):
    """A seed must be a JSON integer: a float, a bool or a string exits 2
    from `eval --seeds-file` and `train --config` instead of being
    truncated to an integer."""
    ckpt = tmp_path / "model.bin"
    save_models(ckpt, init_scoring_model(2, 3, with_g=False, seed=0),
                init_critic(2, 3, seed=1))
    seeds_file = tmp_path / "seeds.json"
    for seeds, bad in (([2000.7, True, "2002"], "2000.7"), ([2000, True], "True"),
                       ([2000, "2002"], "'2002'"), ([2000.0], "2000.0")):
        seeds_file.write_text(json.dumps(seeds))
        assert_cli_error(capsys, "eval", "--checkpoint", str(ckpt), "--scenario", "2x4",
                         "--seeds-file", str(seeds_file),
                         says=f"seeds file {seeds_file}: {bad} is not an integer")
    path, saved = _saved_config(tmp_path)
    for key, value, says in (("eval_seeds", [10000.9, True], "eval_seeds: 10000.9"),
                             ("eval_seeds", [10000, True], "eval_seeds: True"),
                             ("eval_seeds", 10000, "eval_seeds: 10000 is not a list"),
                             ("seed", 2.5, "seed: 2.5"), ("seed", False, "seed: False")):
        doc = json.loads(json.dumps(saved))
        doc["experiment"][key] = value
        path.write_text(json.dumps(doc))
        assert_cli_error(capsys, "train", "--config", str(path), says=says)


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("section,key", [
    ("experiment", "total_updates"), ("experiment", "eval_every"),
    ("a2c", "p"), ("a2c", "n_steps"), ("a2c", "workers"), ("a2c", "batch_chunks"),
    ("sweep", "samples"), ("sweep", "seed"), ("sweep", "budget_updates")])
def test_cli_non_integer_config_fields_fail_cleanly(tmp_path, capsys, section, key, value):
    """Every integer field of an experiment, its a2c object or a sweep must
    be a JSON integer: a float, a bool or a string exits 2 with one
    `error:` line, from `train --config` or `sweep --spec`."""
    path, doc = _saved_config(tmp_path)
    argv, says = ("train", "--config"), f"{key}: {value!r} is not an integer"
    if section == "sweep":
        doc["sweep"] = {key: value}
        argv = ("sweep", "--spec")
    elif section == "a2c":
        doc["experiment"]["a2c"][key] = value
        says = f"a2c: {key} must be an integer, got {value!r}"
    else:
        doc["experiment"][key] = value
    path.write_text(json.dumps(doc))
    assert_cli_error(capsys, *argv, str(path), says=says)


@pytest.mark.parametrize("key,value,says", [
    ("a2c", [1, 2], "a2c: [1, 2] is not an object"),
    ("a2c", 0.99, "a2c: 0.99 is not an object"),
    ("output_dir", 5, "output_dir: 5 is not a string"),
    ("scenario", 24, "scenario: 24 is not a string"),
    ("scenario", ["2x4"], "scenario: ['2x4'] is not a string"),
])
@pytest.mark.parametrize("environment", ["rescue", "battle"])
def test_cli_malformed_config_fields_fail_cleanly(tmp_path, capsys, environment, key,
                                                  value, says):
    """An a2c entry that is no JSON object, or a scenario or output_dir that
    is no string, exits 2 with one `error:` line instead of a traceback."""
    path = tmp_path / "config.json"
    save_experiment(path, small_experiment(
        environment=environment, scenario="2x4" if environment == "rescue" else "m5v5",
        output_dir=str(tmp_path / "run")))
    doc = json.loads(path.read_text())
    doc["experiment"][key] = value
    path.write_text(json.dumps(doc))
    assert_cli_error(capsys, "train", "--config", str(path), says=says)


@pytest.mark.parametrize("key", ["sigma", "lam", "lr_policy", "lr_value"])
def test_cli_a2c_number_too_large_for_a_float_fails_cleanly(tmp_path, capsys, key):
    """A real-valued a2c field that holds a JSON integer too large for a
    float (1 followed by 400 zeros) exits 2 with one `error:` line."""
    path, doc = _saved_config(tmp_path)
    doc["experiment"]["a2c"][key] = 10 ** 400
    path.write_text(json.dumps(doc))
    assert_cli_error(capsys, "train", "--config", str(path), says=f"a2c: {key} must be finite")


@pytest.mark.parametrize("section", ["experiment", "sweep"])
def test_cli_non_object_sections_fail_cleanly(tmp_path, capsys, section):
    """An experiment or sweep entry that is no JSON object exits 2 with one
    `error:` line."""
    path, doc = _saved_config(tmp_path)
    doc.setdefault("sweep", {})
    doc[section] = [1, 2]
    path.write_text(json.dumps(doc))
    argv = ("train", "--config") if section == "experiment" else ("sweep", "--spec")
    assert_cli_error(capsys, *argv, str(path), says=f"{section}: [1, 2] is not an object")


@pytest.mark.parametrize("key", ["gamma", "sigma", "lam", "lr_policy", "lr_value"])
@pytest.mark.parametrize("value", ["0.001", True, None, [0.5]],
                         ids=["string", "bool", "null", "list"])
def test_cli_non_number_a2c_fields_fail_cleanly(tmp_path, capsys, key, value):
    """Every real-valued a2c field must be a JSON number: a string, a bool,
    a null or a list exits 2 with one `error:` line."""
    path, doc = _saved_config(tmp_path)
    doc["experiment"]["a2c"][key] = value
    path.write_text(json.dumps(doc))
    assert_cli_error(capsys, "train", "--config", str(path),
                     says=f"a2c: {key} must be a number, got {value!r}")


@pytest.mark.parametrize("key,value,says", [
    ("sigma", float("nan"), "sigma must be finite"),
    ("sigma", float("inf"), "sigma must be finite"),
    ("lam", float("nan"), "lam must be finite"),
    ("lr_policy", float("-inf"), "lr_policy must be finite"),
    ("lr_value", float("nan"), "lr_value must be finite"),
    ("gamma", float("nan"), "gamma must be in [0, 1)"),
    ("lr_value", -0.5, "lam, lr_policy and lr_value must be >= 0"),
    ("lr_policy", -1e-3, "lam, lr_policy and lr_value must be >= 0"),
    ("lam", -1, "lam, lr_policy and lr_value must be >= 0"),
])
def test_cli_out_of_range_real_a2c_fields_fail_cleanly(tmp_path, capsys, key, value, says):
    """A non-finite real a2c field, a negative learning rate or a negative
    policy-loss weight exits 2 with one `error:` line."""
    path, doc = _saved_config(tmp_path)
    doc["experiment"]["a2c"][key] = value
    path.write_text(json.dumps(doc))
    assert_cli_error(capsys, "train", "--config", str(path), says=f"a2c: {says}")


def test_a2c_learning_rates_of_zero_stay_legal():
    # a learning rate of 0 freezes that side of the learner
    cfg = A2CConfig(lr_policy=0.0, lr_value=0.0, lam=0.0)
    assert (cfg.lr_policy, cfg.lr_value, cfg.lam) == (0.0, 0.0, 0.0)
