"""Ranking-based retrieval metrics over predicted relationship scores.

Candidates are all off-diagonal (predicate, subject, object) cells of the
score grid, ranked by score with a deterministic tie-break (ascending
predicate, subject, object). Recall@K is the fraction of ground-truth
triplets inside the top K; mean recall averages per-predicate recalls
over the images containing each predicate, then over predicates. The
zero-shot variants first restrict ground truth to triplets whose
(subject class, predicate, object class) combination was never seen in
training.
"""

from __future__ import annotations

import csv

import numpy as np


def offdiagonal(n: int) -> np.ndarray:
    """(n, n) float mask: 1 off the diagonal, 0 on it."""
    return 1.0 - np.eye(n, dtype=np.float64)


def ranked_triplets(scores: np.ndarray, graph_constraint: bool = False) -> np.ndarray:
    """Rank all off-diagonal candidates of a (P, n, n) score grid. Returns
    an (M, 3) integer array of (predicate, subject, object) rows in rank
    order. With the graph constraint, only each ordered pair's best
    predicate (ties to the lowest index) enters the ranking."""
    P, n, _ = scores.shape
    sub, obj = np.nonzero(offdiagonal(n))
    if graph_constraint:
        pred = scores.argmax(axis=0)[sub, obj]  # first max wins
    else:
        pred = np.repeat(np.arange(P), sub.size)
        sub, obj = np.tile(sub, P), np.tile(obj, P)
    order = np.lexsort((obj, sub, pred, -scores[pred, sub, obj]))
    return np.stack([pred[order], sub[order], obj[order]], axis=1)


def _top_k(ranked: np.ndarray, k: int) -> set:
    """The first k ranked candidates as (subject, predicate, object)."""
    return {(s, p, o) for p, s, o in ranked[:k].tolist()}


def recall_at_k(ranked: np.ndarray, gt_triplets: list, k: int) -> float | None:
    """Fraction of ground truth inside the top k; None when the image has
    no ground truth (excluded from aggregation)."""
    gt = {(s, p, o) for s, p, o in gt_triplets}
    if not gt:
        return None
    return len(gt & _top_k(ranked, k)) / len(gt)


def per_predicate_recall_at_k(ranked: np.ndarray, gt_triplets: list, k: int) -> dict:
    """Recall@k split by predicate; only predicates with ground truth in
    this image appear."""
    by_pred: dict[int, list] = {}
    for s, p, o in gt_triplets:
        by_pred.setdefault(p, []).append((s, p, o))
    top = _top_k(ranked, k)
    return {p: sum(1 for t in triples if t in top) / len(triples)
            for p, triples in by_pred.items()}


def aggregate_recall(per_image: list) -> float | None:
    """Mean over images, skipping images without ground truth."""
    vals = [v for v in per_image if v is not None]
    return float(np.mean(vals)) if vals else None


def per_predicate_mean(per_image_per_pred: list, P: int) -> dict:
    """Each predicate's value averaged over the images containing it;
    predicates absent from every image are left out."""
    sums = np.zeros(P)
    counts = np.zeros(P)
    for rec in per_image_per_pred:
        for p, v in rec.items():
            sums[p] += v
            counts[p] += 1
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), sums[present] / counts[present]))


def aggregate_mean_recall(per_image_per_pred: list, P: int) -> float | None:
    """Average each predicate over the images containing it, then average
    over predicates with at least one ground-truth instance."""
    means = per_predicate_mean(per_image_per_pred, P)
    if not means:
        return None
    return float(np.mean(list(means.values())))


def zero_shot_filter(gt_triplets: list, entity_classes: list, seen_triples: set) -> list:
    """Keep triplets whose (subject class, predicate, object class) was
    never annotated in training."""
    return [(s, p, o) for s, p, o in gt_triplets
            if (entity_classes[s], p, entity_classes[o]) not in seen_triples]


# -- CSV output ----------------------------------------------------------

METRIC_COLUMNS = ("split", "task", "metric", "k", "predicate", "value")


def format_value(v) -> str:
    if v is None:
        return "na"
    return repr(float(v))


def write_csv(path, columns, rows) -> None:
    """A header row, then one line per row. Floats and None are written
    through ``format_value``, floats with full round-trip precision, so
    identical runs give byte-identical files; other cells as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(v) if v is None or isinstance(v, (float, np.floating))
                             else v for v in row])


def write_metrics_csv(path, rows: list) -> None:
    """Rows are (split, task, metric, k, predicate, value) tuples. The
    predicate cell of an aggregate row (predicate None) is left empty."""
    write_csv(path, METRIC_COLUMNS,
              ((split, task, metric, k, "" if predicate is None else predicate, value)
               for split, task, metric, k, predicate, value in rows))
