"""Training objectives for relationship prediction.

Every loss returns a scalar tensor. A scene that offers no supervision
for a term (for example, no positive pairs) gets an exact zero with no
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_priors
from .evalkit import offdiagonal
from .tensor import Tensor, add, concat, exp, mul, relu, sigmoid, softplus, sub, \
    tmax, tsum


@dataclass
class GroundTruthRelations:
    targets: np.ndarray       # P x n x n, 1 where (subject, predicate, object) is annotated
    pair_targets: np.ndarray  # n x n, 1 where the ordered pair has any predicate
    num_positive: int         # annotated triplet count

    @classmethod
    def from_triplets(cls, triplets: list, n: int, P: int) -> "GroundTruthRelations":
        targets = np.zeros((P, n, n), dtype=np.float64)
        for s, p, o in triplets:
            targets[p, s, o] = 1.0
        pair = (targets.sum(axis=0) > 0).astype(np.float64)
        return cls(targets=targets, pair_targets=pair, num_positive=int(targets.sum()))


def predicate_gammas(priors: np.ndarray, gamma_base: float) -> np.ndarray:
    """Per-predicate focusing strength, largest for the most frequent
    predicate: gamma_base * (pi - min pi) / (max pi - min pi). A uniform
    prior gives all zeros."""
    priors = check_priors(priors)
    lo, hi = priors.min(), priors.max()
    if hi == lo:
        return np.zeros_like(priors)
    return gamma_base * (priors - lo) / (hi - lo)


def _focal_sum(logits: Tensor, gammas: np.ndarray, pos_weight: np.ndarray,
               neg_weight: np.ndarray, count: int) -> Tensor:
    """Weighted focal cross-entropy summed over every entry, over count.

    positive: (1 - sigmoid(x))^g * -log sigmoid(x)  = exp(-g*sp(x)) * sp(-x)
    negative: sigmoid(x)^g * -log(1 - sigmoid(x))   = exp(-g*sp(-x)) * sp(x)
    with sp = softplus, so no term ever sees a saturated log.
    """
    sp_pos = softplus(logits)
    sp_neg = softplus(mul(logits, -1.0))
    pos = mul(exp(mul(sp_pos, -gammas)), sp_neg)
    neg = mul(exp(mul(sp_neg, -gammas)), sp_pos)
    total = add(tsum(mul(pos, Tensor(pos_weight))), tsum(mul(neg, Tensor(neg_weight))))
    return mul(total, 1.0 / count)


def focal_bce(logits: Tensor, gt: GroundTruthRelations, alpha: float,
              gammas: np.ndarray) -> Tensor:
    """Focal binary cross-entropy over every off-diagonal (predicate,
    subject, object) cell, both branches normalized by the positive count."""
    P, n, _ = logits.shape
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.shape != (P,):
        raise ValueError(f"gammas must have shape ({P},), got {gammas.shape}")
    if gt.num_positive == 0:
        return Tensor(0.0)
    off = offdiagonal(n)[None, :, :]
    return _focal_sum(logits, gammas.reshape(P, 1, 1), alpha * gt.targets * off,
                      (1.0 - alpha) * (1.0 - gt.targets) * off, gt.num_positive)


def mask_loss(rel_logits: Tensor, gt: GroundTruthRelations, alpha: float,
              gamma: float, neg_ratio: int, rng: np.random.Generator) -> Tensor:
    """Focal BCE on the relatedness grid with negative subsampling: at most
    neg_ratio negatives per positive pair, drawn without replacement."""
    n = gt.pair_targets.shape[0]
    off = offdiagonal(n)
    pos_mask = gt.pair_targets * off
    n_pos = int(pos_mask.sum())
    if n_pos == 0:
        return Tensor(0.0)
    neg_flat = np.flatnonzero(((1.0 - gt.pair_targets) * off).reshape(-1))
    quota = min(neg_ratio * n_pos, neg_flat.size)
    chosen = rng.choice(neg_flat, size=quota, replace=False) if quota else np.array([], dtype=np.intp)
    neg_mask = np.zeros(n * n, dtype=np.float64)
    neg_mask[chosen] = 1.0
    return _focal_sum(rel_logits, np.asarray(gamma, dtype=np.float64), alpha * pos_mask,
                      (1.0 - alpha) * neg_mask.reshape(n, n), n_pos)


def margin_ranking_loss(logits: Tensor, gt: GroundTruthRelations) -> Tensor:
    """Push every negative below its predicate's weakest positive: mean
    hinge of sigmoid(negative) above the per-predicate minimum positive
    sigmoid, over all off-diagonal negatives of predicates that have at
    least one positive in the scene."""
    P, n, _ = logits.shape
    if gt.num_positive == 0:
        return Tensor(0.0)
    off = offdiagonal(n)[None, :, :]
    pos_mask = gt.targets * off
    has_pos = pos_mask.reshape(P, -1).sum(axis=1) > 0
    elig = (1.0 - gt.targets) * off * has_pos[:, None, None]
    n_neg = int(elig.sum())
    if n_neg == 0:
        return Tensor(0.0)
    sig = sigmoid(logits)
    # Min over positives via max of the negation; non-positives are pushed
    # above any sigmoid value so they never win.
    shifted = add(mul(sig, Tensor(pos_mask)), Tensor(2.0 * (1.0 - pos_mask)))
    floor = mul(tmax(mul(shifted, -1.0), axis=(1, 2), keepdims=True), -1.0)  # P x 1 x 1
    hinge = mul(relu(sub(sig, floor)), Tensor(elig))
    return mul(tsum(hinge), 1.0 / n_neg)


def union_enclosing_boxes(triplets: list, boxes: np.ndarray) -> tuple:
    """Per entity, the enclosing box of the subject-object union boxes of
    every triplet the entity participates in. Returns (n x 4 array, n mask)."""
    n = boxes.shape[0]
    trip = np.asarray(triplets, dtype=np.intp).reshape(-1, 3)
    sub_box, obj_box = boxes[trip[:, 0]], boxes[trip[:, 2]]
    union = np.concatenate([np.minimum(sub_box[:, :2], obj_box[:, :2]),
                            np.maximum(sub_box[:, 2:], obj_box[:, 2:])], axis=1)
    ents = np.concatenate([trip[:, 0], trip[:, 2]])
    unions = np.concatenate([union, union])
    enc = np.empty((n, 4), dtype=np.float64)
    enc[:, :2] = np.inf
    enc[:, 2:] = -np.inf
    np.minimum.at(enc[:, :2], ents, unions[:, :2])
    np.maximum.at(enc[:, 2:], ents, unions[:, 2:])
    involved = np.zeros(n, dtype=bool)
    involved[ents] = True
    enc[~involved] = 0.0
    return enc, involved


def rep_point_margin_loss(mean_points: list, triplets: list, boxes: np.ndarray) -> Tensor:
    """Keep accumulated offset means spatially near each entity's
    relations: hinge on how far the x and y of every (entity, group) mean
    falls outside the entity's enclosing relation box, averaged over
    contributing coordinates and summed over the provided point sets,
    which must share one n x K x 3 shape. The scale coordinate is
    unconstrained."""
    if not triplets or not mean_points:
        return Tensor(0.0)
    shapes = {tuple(pts.shape) for pts in mean_points}
    if len(shapes) != 1:
        raise ValueError(f"point sets must share one shape, got {sorted(shapes)}")
    enc, involved = union_enclosing_boxes(triplets, boxes)
    if not involved.any():
        return Tensor(0.0)
    n, K, _ = shapes.pop()
    xy = concat(mean_points, axis=1)[:, :, :2]  # n x (sets * K) x 2
    hinge = add(relu(sub(xy, Tensor(enc[:, None, 2:]))), relu(sub(Tensor(enc[:, None, :2]), xy)))
    mask = Tensor(involved.astype(np.float64).reshape(n, 1, 1))
    return mul(tsum(mul(hinge, mask)), 1.0 / float(involved.sum() * K * 2))
