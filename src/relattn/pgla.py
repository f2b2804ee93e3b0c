"""Performance-guided logit adjustment for long-tailed predicates.

A running per-predicate performance estimate (recall or precision over
prior-matched candidate budgets) steers a multiplicative weight W and an
additive bias B applied to the logits of annotated pairs during training.
A confusion matrix of logit gaps toward more frequent predicates adds a
per-instance correction. Uniform performance reduces the scheme exactly
to prior-based logit adjustment. Inference never sees any of this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import check_priors
from .evalkit import ranked_triplets
from .losses import GroundTruthRelations
from .tensor import Tensor, add, mul

RHO_BASE = 0.9999


@dataclass(frozen=True)
class PglaState:
    priors: np.ndarray       # (P,) positive, sums to 1
    r: np.ndarray            # (P,) running performance estimate
    confusion: np.ndarray    # (P, P) running confusion logits, zero diagonal
    rho: np.ndarray          # (P,) per-predicate EMA momentum
    lam: float               # temperature on dr in B; larger narrows B - log(priors)
    metric: str              # "recall" or "precision"

    @classmethod
    def create(cls, priors: np.ndarray, lam: float, metric: str) -> "PglaState":
        priors = check_priors(priors)
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if metric not in ("recall", "precision"):
            raise ValueError(f"unknown metric {metric!r}")
        P = priors.size
        rho = RHO_BASE ** (-np.log(priors))
        return cls(priors=priors, r=np.zeros(P), confusion=np.zeros((P, P)),
                   rho=rho, lam=float(lam), metric=metric)

    @property
    def P(self) -> int:
        return self.priors.size


def compute_wb(state: PglaState) -> tuple:
    """Weight and bias from the centered performance estimate:
    W = 1 - tanh(dr), B = -tanh(dr / lambda) * log(1 / P) + log(priors).
    With uniform r this is exactly W = 1, B = log(priors)."""
    dr = state.r - state.r.mean()
    W = 1.0 - np.tanh(dr)
    B = -np.tanh(dr / state.lam) * np.log(1.0 / state.P) + np.log(state.priors)
    return W, B


def adjust_logits(logits: Tensor, gt: GroundTruthRelations, W: np.ndarray,
                  B: np.ndarray, confusion: np.ndarray) -> Tensor:
    """Per-instance adjustment, applied only where the pair has at least
    one annotated predicate: every predicate logit of such a pair becomes
    W * logit + B + max over the pair's annotated predicates of that
    predicate's confusion row. Unannotated pairs pass through unchanged."""
    P, n, _ = logits.shape
    pair = gt.pair_targets  # n x n
    w_full = np.where(pair[None, :, :] > 0, W[:, None, None], 1.0)

    # Row-wise max of confusion rows selected by the pair's positives.
    sel = np.where(gt.targets[:, :, :, None] > 0, confusion[:, None, None, :], -np.inf)
    row = sel.max(axis=0)                       # n x n x P
    row = np.where(np.isfinite(row), row, 0.0)  # pairs with no positives
    b_full = (B[:, None, None] + row.transpose(2, 0, 1)) * pair[None, :, :]
    return add(mul(logits, Tensor(w_full)), Tensor(b_full))


def _budgets(priors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Top-list budget per predicate: ground-truth counts accumulated in
    ascending-prior order, so rarer predicates get tighter budgets."""
    nu = np.argsort(priors, kind="stable")
    kappa = np.empty_like(counts)
    kappa[nu] = np.cumsum(counts[nu])
    return kappa


def batch_performance(scores: np.ndarray, gt: GroundTruthRelations,
                      priors: np.ndarray, metric: str) -> tuple:
    """Per-predicate performance of one scene under prior-matched budgets.

    For predicate p with budget kappa_p (cumulative GT counts in
    ascending-prior order), take the kappa_p highest-scoring candidates:
    recall = matched GT triplets of p / GT count of p; precision = matched
    GT triplets of p / candidates of p in that top list. Returns
    (values, updated) where updated marks predicates with a defined value.
    """
    P = priors.size
    counts = gt.targets.sum(axis=(1, 2)).astype(np.int64)
    values = np.zeros(P, dtype=np.float64)
    if counts.sum() == 0:
        return values, np.zeros(P, dtype=bool)
    ranked = ranked_triplets(scores)
    rank = np.full(scores.shape, len(ranked))  # the diagonal is never ranked
    rank[ranked[:, 0], ranked[:, 1], ranked[:, 2]] = np.arange(len(ranked))
    in_budget = rank < _budgets(priors, counts)[:, None, None]
    matched = (in_budget & (gt.targets != 0)).sum(axis=(1, 2))
    if metric == "recall":
        denom = counts
    else:
        denom = in_budget.sum(axis=(1, 2))  # candidates of p inside its budget
    updated = denom > 0
    values[updated] = matched[updated] / denom[updated]
    return values, updated


def update_performance(state: PglaState, scores: np.ndarray,
                       gt: GroundTruthRelations) -> PglaState:
    """Fold one scene into the running estimate: r <- rho * r +
    (1 - rho) * batch value, only for predicates the scene measured."""
    values, updated = batch_performance(scores, gt, state.priors, state.metric)
    r = np.where(updated, state.rho * state.r + (1.0 - state.rho) * values, state.r)
    return replace(state, r=r)


def update_confusion(state: PglaState, logits: np.ndarray,
                     gt: GroundTruthRelations) -> PglaState:
    """Fold one scene into the confusion matrix. For each annotated
    instance of predicate p, the row over candidates q is
    relu(logit_q - logit_p) * tanh(relu(log prior_q - log prior_p)):
    the logit surplus toward more frequent predicates, gated by how much
    more frequent they are. Rows average per predicate, then EMA."""
    P = state.P
    log_pi = np.log(state.priors)
    gate = np.tanh(np.maximum(log_pi[None, :] - log_pi[:, None], 0.0))  # rows p, cols q
    # One row per annotated instance, in (p, s, o) order; ``add.at`` sums
    # each predicate's rows one after another, in that order.
    ps, subs, objs = np.nonzero(gt.targets)
    surplus = np.maximum(logits[:, subs, objs].T - logits[ps, subs, objs][:, None], 0.0)
    rows = np.zeros((P, P), dtype=np.float64)
    np.add.at(rows, ps, surplus * gate[ps])
    hits = np.bincount(ps, minlength=P)
    confusion = state.confusion.copy()
    present = hits > 0
    if present.any():
        rows[present] /= hits[present, None]
        rho = state.rho[present, None]
        confusion[present] = rho * confusion[present] + (1.0 - rho) * rows[present]
    return replace(state, confusion=confusion)
