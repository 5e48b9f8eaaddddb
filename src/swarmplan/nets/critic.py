"""Permutation-invariant state-value network.

Each entity (agent or task, any count of either) is embedded by a shared
MLP from its one-hot kind and zero-padded features; embeddings are mean
pooled and a small head maps the pooled vector to a scalar value. Mean
pooling makes the value exactly invariant to entity order and defined
for any entity count, which is what lets one critic train across
instance sizes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import (
    HIDDEN,
    MlpParams,
    NetError,
    init_mlp,
    mlp_backward_batch,
    mlp_forward_batch,
)


@dataclass
class CriticParams:
    embed_net: MlpParams  # (num_kinds + feature_dim) -> HIDDEN
    head_net: MlpParams   # HIDDEN -> 1
    num_kinds: int
    feature_dim: int

    def __post_init__(self):
        if self.embed_net.in_dim != self.num_kinds + self.feature_dim:
            raise NetError("embed_net input dim does not match kinds + features")
        if self.head_net.in_dim != self.embed_net.out_dim:
            raise NetError("head_net input dim does not match embedding dim")

    def copy(self) -> "CriticParams":
        return CriticParams(self.embed_net.copy(), self.head_net.copy(),
                            self.num_kinds, self.feature_dim)


def init_critic(num_kinds: int, feature_dim: int, seed: int = 0) -> CriticParams:
    rng = np.random.default_rng(seed)
    embed = init_mlp([num_kinds + feature_dim, HIDDEN, HIDDEN], rng)
    head = init_mlp([HIDDEN, HIDDEN, 1], rng)
    return CriticParams(embed, head, num_kinds, feature_dim)


def _entity_matrix(params: CriticParams, entity_lists):
    """Stack the input rows of several entity lists; also return their counts."""
    counts = np.array([len(entities) for entities in entity_lists], dtype=int)
    if counts.size == 0 or np.any(counts == 0):
        raise NetError("critic_value requires at least one entity")
    X = np.zeros((int(counts.sum()), params.num_kinds + params.feature_dim))
    row = 0
    for entities in entity_lists:
        for kind, feats in entities:
            if not 0 <= kind < params.num_kinds:
                raise NetError(f"entity kind {kind} out of range")
            feats = np.asarray(feats, dtype=float)
            if feats.shape[0] > params.feature_dim:
                raise NetError(f"entity features length {feats.shape[0]} > {params.feature_dim}")
            X[row, kind] = 1.0
            X[row, params.num_kinds:params.num_kinds + feats.shape[0]] = feats
            row += 1
    return X, counts


def critic_values(params: CriticParams, entity_lists, with_cache: bool = False):
    """V of each entity list from one embed pass and one head pass.

    The rows of every list are embedded together, mean pooled per list
    (a segment sum over row offsets divided by the counts), and the
    pooled rows go through the head together. Returns an array with one
    value per list; with_cache=True also returns the caches for
    `critic_values_backward`.
    """
    X, counts = _entity_matrix(params, entity_lists)
    emb, embed_cache = mlp_forward_batch(params.embed_net, X)
    offsets = np.cumsum(counts) - counts
    pooled = np.add.reduceat(emb, offsets, axis=0) / counts[:, None]
    out, head_cache = mlp_forward_batch(params.head_net, pooled)
    values = out[:, 0]
    if with_cache:
        return values, (embed_cache, head_cache, counts)
    return values


def critic_values_backward(params: CriticParams, cache, upstream: np.ndarray):
    """Gradients of sum_k upstream[k] * V_k w.r.t. embed and head parameters."""
    embed_cache, head_cache, counts = cache
    head_grads, d_pooled = mlp_backward_batch(
        params.head_net, head_cache, np.asarray(upstream, dtype=float)[:, None]
    )
    d_emb = np.repeat(d_pooled / counts[:, None], counts, axis=0)
    embed_grads, _ = mlp_backward_batch(params.embed_net, embed_cache, d_emb)
    return embed_grads, head_grads


def critic_value(params: CriticParams, entities, with_cache: bool = False):
    """V = head(mean over entities of embed(kind ++ features))."""
    if with_cache:
        values, cache = critic_values(params, [entities], with_cache=True)
        return float(values[0]), cache
    return float(critic_values(params, [entities])[0])


def critic_backward(params: CriticParams, cache, upstream: float = 1.0):
    """Gradients of upstream * V w.r.t. embed and head parameters."""
    return critic_values_backward(params, cache, np.array([upstream]))
