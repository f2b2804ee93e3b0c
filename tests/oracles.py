"""Brute-force reference implementations used by several test modules.

Everything here is written as plainly as possible: explicit loops over
corners, candidates, and ranks, so the fast implementations have an
independent target to agree with.
"""

import numpy as np


def trilinear_oracle(volume, coord):
    """Blend the eight grid corners around one (x, y, s) point.

    volume: (S, H, W, d) array. coord: length-3 array in (x, y, s) order;
    values outside [0, 1] clamp to the border (the sampler refuses them).
    """
    S, H, W, _ = volume.shape
    x, y, s = (float(np.clip(c, 0.0, 1.0)) for c in coord)
    u, v, w = x * (W - 1), y * (H - 1), s * (S - 1)
    x0, y0, s0 = int(np.floor(u)), int(np.floor(v)), int(np.floor(w))
    x0, y0, s0 = min(x0, W - 1), min(y0, H - 1), min(s0, S - 1)
    x1, y1, s1 = min(x0 + 1, W - 1), min(y0 + 1, H - 1), min(s0 + 1, S - 1)
    fx, fy, fs = u - x0, v - y0, w - s0
    out = np.zeros(volume.shape[-1], dtype=volume.dtype)
    for ds, ws_ in ((s0, 1 - fs), (s1, fs)):
        for dy, wy in ((y0, 1 - fy), (y1, fy)):
            for dx, wx in ((x0, 1 - fx), (x1, fx)):
                out = out + ws_ * wy * wx * volume[ds, dy, dx]
    return out


def budget_recall_oracle(scores, gt_triplets, priors):
    """Per-predicate budgeted recall of one scene, by exhaustive ranking.

    scores: (P, n, n) array. gt_triplets: list of (subject, predicate,
    object). priors: (P,) array. Returns (recall, present) arrays of
    length P where present marks predicates with at least one ground
    truth. Candidates are ranked by descending score with ascending
    (predicate, subject, object) breaking ties; each predicate's budget
    is the cumulative ground-truth count taken in ascending-prior order.
    """
    P, n, _ = scores.shape
    candidates = []
    for p in range(P):
        for i in range(n):
            for j in range(n):
                if i != j:
                    candidates.append((-scores[p, i, j], p, i, j))
    candidates.sort()
    ranked = [(p, i, j) for _, p, i, j in candidates]

    counts = np.zeros(P, dtype=int)
    for s, p, o in gt_triplets:
        counts[p] += 1
    order = np.argsort(priors, kind="stable")
    budgets = np.zeros(P, dtype=int)
    running = 0
    for p in order:
        running += counts[p]
        budgets[p] = running

    recall = np.zeros(P)
    present = counts > 0
    for p in range(P):
        if not present[p]:
            continue
        top = set(ranked[:budgets[p]])
        hits = sum(1 for s, q, o in gt_triplets
                   if q == p and (p, s, o) in top)
        recall[p] = hits / counts[p]
    return recall, present


def budget_precision_oracle(scores, gt_triplets, priors):
    """Precision variant: correct predictions of p inside its budget over
    all predictions of p inside its budget; updated only when p appears
    in its own budget at all."""
    P, n, _ = scores.shape
    candidates = []
    for p in range(P):
        for i in range(n):
            for j in range(n):
                if i != j:
                    candidates.append((-scores[p, i, j], p, i, j))
    candidates.sort()
    ranked = [(p, i, j) for _, p, i, j in candidates]

    counts = np.zeros(P, dtype=int)
    for s, p, o in gt_triplets:
        counts[p] += 1
    order = np.argsort(priors, kind="stable")
    budgets = np.zeros(P, dtype=int)
    running = 0
    for p in order:
        running += counts[p]
        budgets[p] = running

    gt_set = set((s, p, o) for s, p, o in gt_triplets)
    precision = np.zeros(P)
    updated = np.zeros(P, dtype=bool)
    for p in range(P):
        preds = [(s, q, o) for q, s, o in ranked[:budgets[p]] if q == p]
        if not preds:
            continue
        hits = sum(1 for t in preds if t in gt_set)
        precision[p] = hits / len(preds)
        updated[p] = True
    return precision, updated


def recall_at_k_oracle(scores, relatedness, gt_triplets, k,
                       graph_constraint=False):
    """Top-k triplet recall for one scene by exhaustive enumeration.

    scores: (P, n, n); relatedness: (n, n) multiplied into every
    predicate score before ranking. With the graph constraint, only each
    pair's best predicate stays a candidate.
    """
    P, n, _ = scores.shape
    combined = scores * relatedness[None, :, :]
    candidates = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = int(np.argmax(combined[:, i, j]))
            for p in range(P):
                if graph_constraint and p != best:
                    continue
                candidates.append((-combined[p, i, j], p, i, j))
    candidates.sort()
    top = set((p, i, j) for _, p, i, j in candidates[:k])
    if not gt_triplets:
        return None
    hits = sum(1 for s, p, o in gt_triplets if (p, s, o) in top)
    return hits / len(gt_triplets)


def confusion_oracle(confusion, priors, rho, logits, targets):
    """One fold of PGLA's confusion matrix, looping over every annotated
    instance. Returns the new (P, P) matrix.

    Each instance of predicate p at pair (s, o) adds the row
    relu(logits[:, s, o] - logits[p, s, o]) * tanh(relu(log prior_q -
    log prior_p)) to predicate p's sum, in (p, s, o) order. A present
    predicate's mean row enters the EMA with momentum rho[p]; absent
    predicates keep their row.
    """
    P = len(priors)
    log_pi = np.log(priors)
    gate = np.tanh(np.maximum(log_pi[None, :] - log_pi[:, None], 0.0))
    rows = np.zeros((P, P))
    hits = np.zeros(P, dtype=np.int64)
    for p in range(P):
        subs, objs = np.nonzero(targets[p])
        for s, o in zip(subs, objs):
            surplus = np.maximum(logits[:, s, o] - logits[p, s, o], 0.0)
            rows[p] += surplus * gate[p]
            hits[p] += 1
    out = confusion.copy()
    present = hits > 0
    if present.any():
        rows[present] /= hits[present, None]
        r = rho[present, None]
        out[present] = r * out[present] + (1.0 - r) * rows[present]
    return out


def adamw_oracle(weights, grad_steps, lr, lr_mults, lr_scales,
                 betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-4):
    """AdamW written out of place, one full-size temporary per operation.

    weights: list of arrays (not modified). grad_steps: one list per step
    holding each weight's gradient, or None to skip that weight (no
    moment decay, no weight decay). lr_scales: the schedule factor of each
    step. Returns the weights after the last step.
    """
    beta1, beta2 = betas
    x = [np.array(w, dtype=np.float64) for w in weights]
    m = [np.zeros_like(w) for w in x]
    v = [np.zeros_like(w) for w in x]
    for t, (grads, scale) in enumerate(zip(grad_steps, lr_scales), start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for i, g in enumerate(grads):
            if g is None:
                continue
            m[i] = m[i] * beta1 + (1.0 - beta1) * g
            v[i] = v[i] * beta2 + (1.0 - beta2) * g * g
            step_lr = lr * scale * lr_mults[i]
            update = (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
            x[i] = x[i] - step_lr * update - step_lr * weight_decay * x[i]
    return x


def union_enclosing_boxes_oracle(triplets, boxes):
    """Per entity, grow an enclosing box over the subject-object union box
    of every triplet it takes part in, one triplet at a time. Returns
    (n x 4 array, n bool mask); entities in no triplet get a zero box."""
    n = boxes.shape[0]
    enc = np.empty((n, 4), dtype=np.float64)
    enc[:, :2] = np.inf
    enc[:, 2:] = -np.inf
    involved = np.zeros(n, dtype=bool)
    for s, _p, o in triplets:
        union = [min(boxes[s, 0], boxes[o, 0]), min(boxes[s, 1], boxes[o, 1]),
                 max(boxes[s, 2], boxes[o, 2]), max(boxes[s, 3], boxes[o, 3])]
        for e in (s, o):
            involved[e] = True
            enc[e, 0] = min(enc[e, 0], union[0])
            enc[e, 1] = min(enc[e, 1], union[1])
            enc[e, 2] = max(enc[e, 2], union[2])
            enc[e, 3] = max(enc[e, 3], union[3])
    enc[~involved] = 0.0
    return enc, involved


def rep_point_margin_oracle(point_sets, triplets, boxes):
    """The representative-point hinge, one point set and one coordinate
    at a time: for each involved entity, how far x and y fall outside its
    enclosing relation box, over the set's involved * K * 2 coordinates,
    summed over the sets. point_sets: list of (n, K, 3) arrays. Returns
    (loss, list of gradients with respect to each set)."""
    enc, involved = union_enclosing_boxes_oracle(triplets, boxes)
    loss = 0.0
    grads = []
    for pts in point_sets:
        n, K, _ = pts.shape
        count = float(involved.sum() * K * 2)
        grad = np.zeros_like(pts)
        for e in range(n):
            if not involved[e]:
                continue
            for k in range(K):
                for axis in (0, 1):
                    v, lo, hi = pts[e, k, axis], enc[e, axis], enc[e, axis + 2]
                    if v > hi:
                        loss += (v - hi) / count
                        grad[e, k, axis] = 1.0 / count
                    elif v < lo:
                        loss += (lo - v) / count
                        grad[e, k, axis] = -1.0 / count
        grads.append(grad)
    return loss, grads


def full_lattice_infer_oracle(model, scene, volume):
    """Inference over every point of the lattice, repeats included.

    The decoder as it ran before it sampled each distinct lattice point
    once: each layer's GCA samples the folded volume and the level
    weights at all (2 range_mult / step_mult + 1)^3 points of every
    (entity, group), points that clamping laid on the same coordinates
    included, and attends over all of them with equal standing. Returns
    the final (subject, object) query arrays and the relation scores.
    """
    from relattn.data import SCALE_LEVELS
    from relattn.decoder import queries, snap_scale
    from relattn.features import build_positional_embeddings
    from relattn.sampler import accumulate_points, inference_grid_offsets
    from relattn.tensor import Tensor, level_weights, no_grad, point_sample

    cfg, decoder = model.config, model.decoder
    n = len(scene.entities)
    with no_grad():
        folded = build_positional_embeddings(volume)
        states, boxes, p0 = decoder.init_state(scene.entities, volume)
        qs = queries(states, boxes)
        points = [Tensor(p0.reshape(n, 1, 1, 3)), Tensor(p0.reshape(n, 1, 1, 3))]
        for layer in range(decoder.layers):
            updated = []
            for r in range(2):
                dist = decoder.samplers[layer][r](qs[r])
                offsets = inference_grid_offsets(dist, cfg.infer_range_mult, cfg.infer_step_mult)
                points[r] = accumulate_points(points[r], offsets)
                coords = points[r]
                if cfg.scale_interpolation == "nearest":
                    coords = snap_scale(coords)
                feats = point_sample(folded, coords)
                blend = level_weights(coords, SCALE_LEVELS)
                updated.append(decoder.gca[layer][r](states[r], qs[r], feats, blend,
                                                     decoder.scale_embeds))
            states = decoder.rca[layer](updated, queries(updated, boxes))
            qs = queries(states, boxes)
        scores = model.head.forward(*qs, None).scores
    return (qs[0].data, qs[1].data), scores
