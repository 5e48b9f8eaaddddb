"""Checkpoint container: JSON header + raw little-endian float32 payload.

Layout: 4-byte little-endian header length, UTF-8 JSON header
{"version", "meta", "arrays": [{"name", "shape"}, ...]}, then the arrays'
float32 data concatenated in header order. save(load(path)) is
bit-exact.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .critic import CriticParams
from .mlp import MlpParams, NetError
from .scoring import ScoringModel

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_arrays(path, arrays: dict, meta: dict | None = None):
    entries = [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()]
    header = json.dumps(
        {"version": FORMAT_VERSION, "meta": meta or {}, "arrays": entries}
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_arrays(path):
    """Returns (arrays dict of float32 ndarrays, meta dict)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise CheckpointError("file too short for a checkpoint header")
    (hlen,) = struct.unpack("<I", raw[:4])
    try:
        header = json.loads(raw[4:4 + hlen].decode("utf-8"))
        entries = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 0
               for _, shape in entries for d in shape):
            raise ValueError("a dimension is not a non-negative integer")
        meta = dict(header["meta"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"bad checkpoint header: {exc!r}") from exc
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
    arrays = {}
    offset = 4 + hlen
    for name, shape in entries:
        end = offset + 4 * math.prod(shape)
        if end > len(raw):
            raise CheckpointError(f"truncated payload for array {name}")
        arrays[name] = np.frombuffer(raw[offset:end], dtype="<f4").reshape(shape)
        offset = end
    if offset < len(raw):
        raise CheckpointError(f"{len(raw) - offset} bytes after the last array")
    return arrays, meta


def _mlp_arrays(prefix: str, params: MlpParams, out: dict):
    for k, (W, b) in enumerate(params.layers):
        out[f"{prefix}.layer{k}.W"] = W
        out[f"{prefix}.layer{k}.b"] = b


def _mlp_from_arrays(prefix: str, arrays: dict) -> MlpParams:
    layers = []
    k = 0
    while f"{prefix}.layer{k}.W" in arrays:
        layers.append((arrays[f"{prefix}.layer{k}.W"].astype(float),
                       arrays[f"{prefix}.layer{k}.b"].astype(float)))
        k += 1
    if not layers:
        raise CheckpointError(f"no layers found under prefix {prefix!r}")
    return MlpParams(layers)


def save_models(path, model: ScoringModel, critic: CriticParams | None = None,
                extra_meta: dict | None = None):
    arrays = {}
    _mlp_arrays("h_net", model.h_net, arrays)
    if model.g_net is not None:
        _mlp_arrays("g_net", model.g_net, arrays)
    meta = {
        "feature_dim_agent": model.feature_dim_agent,
        "feature_dim_task": model.feature_dim_task,
        "pair_extra_dim": model.pair_extra_dim,
        "has_g": model.g_net is not None,
        "has_critic": critic is not None,
    }
    if critic is not None:
        _mlp_arrays("critic_embed", critic.embed_net, arrays)
        _mlp_arrays("critic_head", critic.head_net, arrays)
        meta["critic_num_kinds"] = critic.num_kinds
        meta["critic_feature_dim"] = critic.feature_dim
    if extra_meta:
        meta.update(extra_meta)
    save_arrays(path, arrays, meta)


def load_models(path):
    """Returns (ScoringModel, CriticParams or None, meta). Non-finite weights,
    layers that do not chain and feature widths that disagree with the nets
    raise CheckpointError: parameters from outside are checked here."""
    arrays, meta = load_arrays(path)
    bad = [name for name, a in arrays.items() if not np.isfinite(a).all()]
    if bad:
        raise CheckpointError(f"non-finite weights in {', '.join(bad)}")
    try:
        h_net = _mlp_from_arrays("h_net", arrays)
        g_net = _mlp_from_arrays("g_net", arrays) if meta.get("has_g") else None
        model = ScoringModel(
            h_net, g_net,
            meta["feature_dim_agent"], meta["feature_dim_task"], meta["pair_extra_dim"],
        )
        critic = None
        if meta.get("has_critic"):
            critic = CriticParams(
                _mlp_from_arrays("critic_embed", arrays),
                _mlp_from_arrays("critic_head", arrays),
                meta["critic_num_kinds"], meta["critic_feature_dim"],
            )
    except KeyError as exc:
        raise CheckpointError(f"checkpoint has no {exc} entry") from exc
    except NetError as exc:
        raise CheckpointError(f"bad checkpoint: {exc}") from exc
    return model, critic, meta
