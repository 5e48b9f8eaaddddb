"""Experiment and sweep configuration with a versioned JSON schema.

Schema (version 1)::

    {"version": 1,
     "experiment": {
        "environment": "rescue" | "battle",
        "scenario": "2x4" | battle scenario name,
        "inference": "amax" | "lp" | "quad",
        "a2c": {... A2CConfig fields ...},
        "eval_seeds": [int, ...],
        "output_dir": "runs/...",
        "total_updates": int, "seed": int, "eval_every": int}}

Sweep files carry the same envelope with a "sweep" object alongside
"experiment"::

    "sweep": {"samples": int, "seed": int, "budget_updates": int}

The search laws are fixed (`sweep.sample_config`), so a sweep file sets
none of them. A HarnessError rejects an experiment, sweep or a2c entry
that is no JSON object, a key that names no field, a missing required
key, an integer field that holds no JSON integer and a scenario or
output_dir that holds no string. `A2CConfig` checks the a2c fields; its
LearnError comes out as a HarnessError that starts "a2c: ".
"""
from __future__ import annotations

import dataclasses
import json
import numbers
import re
from dataclasses import dataclass, field

from ..learn import A2CConfig, LearnError

SCHEMA_VERSION = 1
ENVIRONMENTS = ("rescue", "battle")
INFERENCES = ("amax", "lp", "quad")

_RESCUE_SIZE = re.compile(r"^(\d+)x(\d+)$")


class HarnessError(ValueError):
    pass


def _check_keys(cls, data: dict, what: str):
    """Reject a `what` that is no JSON object, or carries keys that `cls`
    has no field for."""
    if not isinstance(data, dict):
        raise HarnessError(f"{what}: {data!r} is not an object")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise HarnessError(f"unknown {what} keys: {', '.join(unknown)}")


def integer(value, what: str) -> int:
    """`value` as an int. A value that is not an integer, a bool included
    (JSON's true is no count), raises HarnessError rather than being
    truncated or failing later."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise HarnessError(f"{what}: {value!r} is not an integer")
    return int(value)


def integer_seeds(values, what: str) -> tuple:
    """`values` as a tuple of ints, each checked by `integer`."""
    try:
        values = tuple(values)
    except TypeError:
        raise HarnessError(f"{what}: {values!r} is not a list of integers") from None
    return tuple(integer(seed, what) for seed in values)


def parse_rescue_size(scenario: str):
    """\"2x4\" -> (2, 4)."""
    match = _RESCUE_SIZE.match(scenario)
    if not match:
        raise HarnessError(f"rescue scenario must look like '2x4', got {scenario!r}")
    n, m = int(match.group(1)), int(match.group(2))
    if n < 1 or m < 1:
        raise HarnessError("rescue sizes must be positive")
    return n, m


@dataclass
class ExperimentConfig:
    environment: str
    scenario: str
    inference: str
    a2c: A2CConfig = field(default_factory=A2CConfig)
    eval_seeds: tuple = ()
    output_dir: str = "runs/experiment"
    total_updates: int = 0
    seed: int = 0
    eval_every: int = 0

    def __post_init__(self):
        for name in ("scenario", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise HarnessError(f"{name}: {getattr(self, name)!r} is not a string")
        if self.environment not in ENVIRONMENTS:
            raise HarnessError(f"environment must be one of {ENVIRONMENTS}")
        if self.inference not in INFERENCES:
            raise HarnessError(f"inference must be one of {INFERENCES}")
        if self.environment == "rescue":
            parse_rescue_size(self.scenario)
        self.eval_seeds = integer_seeds(self.eval_seeds, "eval_seeds")
        for name in ("seed", "total_updates", "eval_every"):
            setattr(self, name, integer(getattr(self, name), name))
        if not self.eval_seeds:
            raise HarnessError("eval_seeds must be nonempty")
        if min(self.seed, *self.eval_seeds) < 0:
            raise HarnessError("seed and eval_seeds must be >= 0")
        if self.total_updates < 0 or self.eval_every < 0:
            raise HarnessError("budgets must be >= 0")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["eval_seeds"] = list(self.eval_seeds)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_keys(cls, data, "experiment")
        data = dict(data)
        a2c = data.pop("a2c", {})
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in data
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise HarnessError(f"missing experiment keys: {', '.join(missing)}")
        _check_keys(A2CConfig, a2c, "a2c")
        try:
            a2c = A2CConfig(**a2c)
        except LearnError as exc:
            raise HarnessError(f"a2c: {exc}") from exc
        return cls(a2c=a2c, **data)


@dataclass
class SweepSpec:
    """How many configs the random search draws, from which seed, and how
    many updates each trains; `sweep.sample_config` holds the laws."""

    samples: int = 8
    seed: int = 0
    budget_updates: int = 50

    def __post_init__(self):
        for name in ("samples", "seed", "budget_updates"):
            setattr(self, name, integer(getattr(self, name), name))
        if self.samples < 1 or self.budget_updates < 0:
            raise HarnessError("samples must be >= 1 and budget_updates >= 0")


def _load_envelope(path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise HarnessError(f"{path} is not a JSON file: {exc}") from exc
    version = data.get("version") if isinstance(data, dict) else None
    if version != SCHEMA_VERSION:
        raise HarnessError(f"unsupported config version {version!r}")
    return data


def load_experiment(path) -> ExperimentConfig:
    data = _load_envelope(path)
    if "experiment" not in data:
        raise HarnessError("config file has no 'experiment' object")
    return ExperimentConfig.from_dict(data["experiment"])


def save_experiment(path, config: ExperimentConfig):
    with open(path, "w") as fh:
        json.dump({"version": SCHEMA_VERSION, "experiment": config.to_dict()},
                  fh, indent=2)
        fh.write("\n")


def load_sweep(path):
    """Returns (SweepSpec, base ExperimentConfig)."""
    data = _load_envelope(path)
    if "sweep" not in data or "experiment" not in data:
        raise HarnessError("sweep file needs 'sweep' and 'experiment' objects")
    base = ExperimentConfig.from_dict(data["experiment"])
    _check_keys(SweepSpec, data["sweep"], "sweep")
    return SweepSpec(**data["sweep"]), base
