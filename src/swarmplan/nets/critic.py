"""Permutation-invariant state-value network.

Each entity (agent or task, any count of either) is embedded by a shared
MLP from its one-hot kind and zero-padded features; embeddings are mean
pooled and a small head maps the pooled vector to a scalar value. Mean
pooling makes the value exactly invariant to entity order and defined
for any entity count, which is what lets one critic train across
instance sizes. The learner builds the rows of many states from their
feature arrays (`critic_rows`); `critic_value` takes one state as
(kind, features) pairs.
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


def critic_rows(params: CriticParams, agent_feats, task_feats) -> np.ndarray:
    """Input rows of S states with equal (n, m) from their (S, n, .) agent and
    (S, m, .) task features: per state, n agent rows of kind 0, then m task
    rows of kind 1, each a one-hot kind followed by the zero-padded features."""
    (S, n, agent_dim), (m, task_dim) = agent_feats.shape, task_feats.shape[1:]
    K, F = params.num_kinds, params.feature_dim
    if max(agent_dim, task_dim) > F or K < 2:
        raise NetError(f"critic rows need 2 kinds and {max(agent_dim, task_dim)} features")
    X = np.zeros((S, n + m, K + F))
    X[:, :n, 0] = X[:, n:, 1] = 1.0
    X[:, :n, K:K + agent_dim] = agent_feats
    X[:, n:, K:K + task_dim] = task_feats
    return X.reshape(S * (n + m), K + F)


def critic_values(params: CriticParams, X: np.ndarray, counts, with_cache: bool = False):
    """V of several states from one embed pass and one head pass.

    X stacks the input rows of every state, counts[k] rows for state k.
    The rows are embedded together, mean pooled per state (a segment sum
    over row offsets divided by the counts), and the pooled rows go
    through the head together. Returns an array with one value per
    state; with_cache=True also returns the caches for
    `critic_values_backward`.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.size == 0 or counts.min() == 0:
        raise NetError("critic_value requires at least one entity")
    emb, embed_cache = mlp_forward_batch(params.embed_net, X, with_cache)
    offsets = np.cumsum(counts) - counts
    pooled = np.add.reduceat(emb, offsets, axis=0) / counts[:, None]
    out, head_cache = mlp_forward_batch(params.head_net, pooled, with_cache)
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
    """V = head(mean over entities of embed(kind ++ features)) for one
    state given as a list of (kind, features) entities."""
    X = np.zeros((len(entities), params.num_kinds + params.feature_dim))
    for row, (kind, feats) in zip(X, entities):
        if not 0 <= kind < params.num_kinds:
            raise NetError(f"entity kind {kind} out of range")
        feats = np.asarray(feats, dtype=float)
        if feats.shape[0] > params.feature_dim:
            raise NetError(f"entity features length {feats.shape[0]} > {params.feature_dim}")
        if not np.isfinite(feats).all():
            raise NetError("non-finite entity features")
        row[kind] = 1.0
        row[params.num_kinds:params.num_kinds + feats.shape[0]] = feats
    if not with_cache:
        return float(critic_values(params, X, [len(entities)])[0])
    values, cache = critic_values(params, X, [len(entities)], with_cache=True)
    return float(values[0]), cache


def critic_backward(params: CriticParams, cache, upstream: float = 1.0):
    """Gradients of upstream * V w.r.t. embed and head parameters."""
    return critic_values_backward(params, cache, np.array([upstream]))
