"""Relationship prediction from decoded entity queries.

Attention logits between every subject query and every object query are
the relationship signal itself: per-head logits are projected linearly
into per-predicate logits and a single relatedness logit, then the K x K
state-pair combinations for each ordered entity pair collapse to one
value. Training collapses with a Gumbel-softmax weighting so the choice
of pair stays differentiable; inference takes the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig
from .decoder import split_heads, split_keys
from .evalkit import offdiagonal
from .params import LinearParams, ParameterRegistry
from .sampler import TrainDraw
from .tensor import Tensor, _sigmoid_np, add, gumbel_softmax, matmul, mul, reshape, \
    tmax, transpose, tsum

TAU_START = 10.0
TAU_END = 0.5
TAU_WARM_FRACTION = 0.3


def annealing_temperature(iteration: int, total_iterations: int) -> float:
    """Linear decay from TAU_START at iteration 0 to TAU_END at 30% of
    total iterations, constant afterwards."""
    if total_iterations <= 0:
        raise ConfigError(f"total_iterations must be positive, got {total_iterations}")
    warm = TAU_WARM_FRACTION * total_iterations
    if iteration >= warm:
        return TAU_END
    return TAU_START + (TAU_END - TAU_START) * (iteration / warm)


@dataclass
class RelationPrediction:
    predicate_logits: Tensor   # P x n x n
    relatedness_logits: Tensor  # n x n
    scores: np.ndarray         # P x n x n, diagonal zeroed, off the tape


def final_scores(predicate_logits: np.ndarray, relatedness_logits: np.ndarray) -> np.ndarray:
    """Geometric mean of the two sigmoid branches, diagonal forced to 0."""
    n = predicate_logits.shape[-1]
    blended = _sigmoid_np(relatedness_logits.reshape(1, n, n)) * _sigmoid_np(predicate_logits)
    return np.sqrt(blended) * offdiagonal(n)[None, :, :]


class RelationHead:
    def __init__(self, registry: ParameterRegistry, config: RunConfig,
                 rng: np.random.Generator):
        self.heads, self.head_dim, self.hard = config.h_A, config.d_A, config.gumbel_hard
        heads, width = self.heads, self.heads * self.head_dim
        self.wq = LinearParams(registry, "head.q", config.d, width, rng)
        self.wk = LinearParams(registry, "head.k", config.d, width, rng)
        self.head_bias = registry.add("head.bias", np.zeros(heads))
        self.to_predicates = LinearParams(registry, "head.predicates", heads, config.P, rng)
        self.to_relatedness = LinearParams(registry, "head.relatedness", heads, 1, rng)

    def attention_logits(self, sub: Tensor, obj: Tensor) -> Tensor:
        """Scaled dot-product logits per head between every subject query
        and every object query (each n x K x d), plus a learned per-head
        bias: h x nK x nK."""
        n, K, d = sub.shape
        q = split_heads(self.wq(reshape(sub, (n * K, d))), self.heads)
        k = split_keys(self.wk(reshape(obj, (n * K, d))), self.heads)
        scaled = matmul(q, k) * (1.0 / math.sqrt(self.head_dim))
        return add(scaled, reshape(self.head_bias, (self.heads, 1, 1)))

    def group_pairs(self, logits: Tensor, n: int, K: int) -> tuple:
        """Regroup the h x nK x nK state-level logits by entity pair, with
        entry (i, j, k_s * K + k_o) taken from row i * K + k_s and column
        j * K + k_o, and map the head axis linearly to per-predicate logits
        (P x n x n x K^2) and relatedness logits (n x n x K^2). The pairs
        are flattened to one (n^2 K^2) x h matrix first, so each map is one
        matrix product rather than n^2 small ones."""
        h = logits.shape[0]
        pairs = reshape(transpose(reshape(logits, (h, n, K, n, K)), (1, 3, 2, 4, 0)),
                        (n * n * K * K, h))
        pred = transpose(reshape(self.to_predicates(pairs), (n, n, K * K, -1)), (3, 0, 1, 2))
        rel = reshape(self.to_relatedness(pairs), (n, n, K * K))
        return pred, rel

    def reduce_pairs(self, pred: Tensor, rel: Tensor, draw: TrainDraw | None) -> tuple:
        """Collapse the K^2 state-pair axis.

        A training draw weighs predicate logits by a Gumbel-softmax sample
        at its temperature (exactly one-hot with `gumbel_hard`, via the
        straight-through estimator); inference takes the maximum.
        Relatedness always reduces by maximum.
        """
        if draw is None:
            out_pred = tmax(pred, axis=-1)
        else:
            weights = gumbel_softmax(pred, draw.tau, rng=draw.rng, hard=self.hard)
            out_pred = tsum(mul(weights, pred), axis=-1)
        out_rel = tmax(rel, axis=-1)
        return out_pred, out_rel

    def forward(self, sub: Tensor, obj: Tensor, draw: TrainDraw | None) -> RelationPrediction:
        """Predictions from the n x K x d subject and object queries. The
        scores are read, never differentiated, so they are taken from the
        logits' arrays, off the tape."""
        n, K, _ = sub.shape
        logits = self.attention_logits(sub, obj)
        pred, rel = self.reduce_pairs(*self.group_pairs(logits, n, K), draw)
        return RelationPrediction(predicate_logits=pred, relatedness_logits=rel,
                                  scores=final_scores(pred.data, rel.data))
