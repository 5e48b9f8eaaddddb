"""Pairwise scoring networks (the Direct Model).

The agent-task score h[i, j] depends only on the features of agent i,
task j and the optional extra features of that pair; the task-task score
g[j, l] only on the two task feature vectors. This locality is what lets
a model trained on small instances run unchanged on larger ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assign import ScoreTable
from .mlp import HIDDEN, MlpParams, NetError, init_mlp, mlp_backward_batch, mlp_forward_batch


@dataclass
class ScoringModel:
    h_net: MlpParams
    g_net: MlpParams | None
    feature_dim_agent: int
    feature_dim_task: int
    pair_extra_dim: int = 0

    def __post_init__(self):
        expect_h = self.feature_dim_agent + self.feature_dim_task + self.pair_extra_dim
        if self.h_net.in_dim != expect_h:
            raise NetError(f"h_net expects input {self.h_net.in_dim}, features give {expect_h}")
        if self.g_net is not None and self.g_net.in_dim != 2 * self.feature_dim_task:
            raise NetError(
                f"g_net expects input {self.g_net.in_dim}, features give {2 * self.feature_dim_task}"
            )

    def copy(self) -> "ScoringModel":
        return ScoringModel(
            self.h_net.copy(),
            self.g_net.copy() if self.g_net is not None else None,
            self.feature_dim_agent,
            self.feature_dim_task,
            self.pair_extra_dim,
        )


def init_scoring_model(
    feature_dim_agent: int,
    feature_dim_task: int,
    pair_extra_dim: int = 0,
    with_g: bool = True,
    seed: int = 0,
) -> ScoringModel:
    rng = np.random.default_rng(seed)
    h_net = init_mlp(
        [feature_dim_agent + feature_dim_task + pair_extra_dim, HIDDEN, HIDDEN, 1], rng
    )
    g_net = init_mlp([2 * feature_dim_task, HIDDEN, HIDDEN, 1], rng) if with_g else None
    return ScoringModel(h_net, g_net, feature_dim_agent, feature_dim_task, pair_extra_dim)


def _pair_rows(left, right, extras=None):
    """Input rows [left_i, right_j, extras_ij] of every pair of a stack.

    left is (B, n, a), right (B, m, b) and extras (B, n, m, e) or None.
    Row (k * n + i) * m + j holds pair (i, j) of instance k.
    """
    B, n, a = left.shape
    m, b = right.shape[1:]
    e = 0 if extras is None else extras.shape[-1]
    X = np.empty((B, n, m, a + b + e))
    X[..., :a] = left[:, :, None, :]
    X[..., a:a + b] = right[:, None, :, :]
    if e:
        X[..., a + b:] = extras
    return X.reshape(B * n * m, a + b + e)


def score_pair_stack(model: ScoringModel, agent_feats, task_feats, pair_extras=None,
                     with_cache: bool = False):
    """h (B, n, m) and g (B, m, m), or None without a g_net, of a stack of
    B instances with equal (n, m); each net runs once over all their rows.

    agent_feats is (B, n, da), task_feats (B, m, dt) and pair_extras
    (B, n, m, de) or None. The tables are not checked for finiteness;
    `ScoreTable` checks one instance. with_cache=True also returns the
    caches for score_pairs_backward.
    """
    A = np.asarray(agent_feats, dtype=float)
    T = np.asarray(task_feats, dtype=float)
    if A.ndim != 3 or A.shape[2] != model.feature_dim_agent:
        raise NetError(f"agent features shape {A.shape[1:]} != (n, {model.feature_dim_agent})")
    if T.ndim != 3 or T.shape[2] != model.feature_dim_task or T.shape[0] != A.shape[0]:
        raise NetError(f"task features shape {T.shape[1:]} != (m, {model.feature_dim_task})")
    B, n, m = A.shape[0], A.shape[1], T.shape[1]
    E = None
    if model.pair_extra_dim:
        E = np.asarray(pair_extras, dtype=float)
        if E.shape != (B, n, m, model.pair_extra_dim):
            raise NetError(f"pair extras shape {E.shape[1:]} != ({n}, {m}, {model.pair_extra_dim})")
    elif pair_extras is not None:
        raise NetError("model takes no pair extras")
    h_out, h_cache = mlp_forward_batch(model.h_net, _pair_rows(A, T, E), with_cache)
    g = g_cache = None
    if model.g_net is not None:
        g_out, g_cache = mlp_forward_batch(model.g_net, _pair_rows(T, T), with_cache)
        g = g_out.reshape(B, m, m)
    h = h_out.reshape(B, n, m)
    if with_cache:
        return h, g, (h_cache, g_cache)
    return h, g


def score_pairs(model: ScoringModel, agent_feats, task_feats, pair_extras=None,
                with_cache: bool = False):
    """Evaluate h (and g if the model has a g_net) on all pairs.

    Returns a ScoreTable; with_cache=True also returns the activation
    caches needed by score_pairs_backward.
    """
    extras = None if pair_extras is None else np.asarray(pair_extras)[None]
    h, g, *cache = score_pair_stack(model, np.asarray(agent_feats)[None],
                                    np.asarray(task_feats)[None], extras, with_cache)
    table = ScoreTable(h[0], None if g is None else g[0])
    if with_cache:
        return table, cache[0]
    return table


def score_pairs_backward(model: ScoringModel, cache, dH: np.ndarray, dG=None):
    """Parameter gradients of sum(dH * h) + sum(dG * g).

    Returns (h_net grads, g_net grads or None), mirroring the layer lists.
    """
    h_cache, g_cache = cache
    h_grads, _ = mlp_backward_batch(model.h_net, h_cache, np.reshape(dH, (-1, 1)))
    g_grads = None
    if dG is not None:
        if model.g_net is None or g_cache is None:
            raise NetError("dG given but the model has no g_net cache")
        g_grads, _ = mlp_backward_batch(model.g_net, g_cache, np.reshape(dG, (-1, 1)))
    return h_grads, g_grads
