"""Entity decoder: subject and object states refined by two attention stages.

Each detected entity carries K subject-role states and K object-role
states, seeded from class-specific embeddings plus the feature volume at
the box center. Every layer (1) predicts stochastic representative points
per state, (2) pools sampled point features into each state with
multi-head attention over its own samples, and (3) lets all subject states
attend over all object states (and transposed for the object side) so both
roles see scene-level context. Every block reads a state's query: the
state plus its entity's box embedding for that role, formed once per state
by ``queries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data import SCALE_LEVELS
from .features import build_positional_embeddings, sinusoidal_grid
from .params import LinearParams, ParameterRegistry, init_normal, xavier
from .sampler import GroupOffsetPredictor, LatticePoints, TrainDraw, accumulate_points, \
    distinct_lattice_points, draw_offsets, inference_grid_offsets
from .tensor import Tensor, add, concat, layer_norm, level_weights, matmul, point_sample, \
    relu, reshape, sample_attention, segment_attention, softmax, transpose


ROLES = ("sub", "obj")


def initial_points(detections: list) -> np.ndarray:
    """n x 3 initial reference points: box center (x, y) and the scale
    level mapped into [0, 1] as level / (SCALE_LEVELS - 1)."""
    pts = np.empty((len(detections), 3), dtype=np.float64)
    for i, det in enumerate(detections):
        cx, cy = det.center
        pts[i] = (cx, cy, det.scale_level / (SCALE_LEVELS - 1))
    return pts


def snap_scale(points: Tensor) -> Tensor:
    """Replace the scale coordinate with its nearest pyramid level
    (constant: no gradient flows through the snapped axis)."""
    top = SCALE_LEVELS - 1
    snapped = np.round(points.data[..., 2] * top) / top
    xy = points[..., :2]
    return concat([xy, Tensor(snapped[..., None])], axis=-1)


def norm_params(registry: ParameterRegistry, prefix: str, d: int) -> tuple:
    """Layer-norm gain and shift, registered as ``prefix.gain``/``.shift``."""
    return (registry.add(f"{prefix}.gain", np.ones(d)),
            registry.add(f"{prefix}.shift", np.zeros(d)))


def split_heads(x: Tensor, heads: int) -> Tensor:
    """Rows of ``heads`` equal column slices, heads first: [... x width]
    to heads x rows x width/heads."""
    return transpose(reshape(x, (-1, heads, x.shape[-1] // heads)), (1, 0, 2))


def split_keys(x: Tensor, heads: int) -> Tensor:
    """Keys laid out for a query product, heads first with rows last:
    [... x width] to heads x width/heads x rows."""
    return transpose(reshape(x, (-1, heads, x.shape[-1] // heads)), (1, 2, 0))


def queries(states: tuple, boxes: tuple) -> tuple:
    """Each role's states plus its box embedding: the (subject, object)
    queries that the sampler, GCA, RCA and the relation head read. This is
    the one place where a state meets its box embedding."""
    return tuple(add(x, box) for x, box in zip(states, boxes))


@dataclass
class DecodeResult:
    queries: tuple  # final (subject, object) queries, each n x K x d
    # (subject, object) per-layer lists: the accumulated unclamped offset
    # means (n x K x 3 tensors) and the sample points (n x K x m x 3 arrays).
    means: tuple = field(default_factory=lambda: ([], []))
    points: tuple = field(default_factory=lambda: ([], []))


class GcaLayer:
    """Multi-head attention of one state's query over the state's own
    sampled point features, with a residual connection on the state and
    layer norm.

    No per-sample key or value is formed. With x = feats + pe, head j's
    key weights W_k^j and value weights W_v^j:

    - q_j . (x W_k^j) = (q_j W_k^jT) . x, so each query is mapped back to
      width d once and scores the raw samples;
    - sum_m w_m (x_m W_v^j + b_j) = (sum_m w_m x_m) W_v^j + b_j, since the
      softmax weights sum to one, so the raw samples are pooled first and
      projected once per head, and ``v.bias`` passes through unchanged.

    Nor is x formed: the positional code pe = blend . table blends the
    S x d scale table with each sample's level weights (`level_weights`),
    so with q~ a query mapped back to width d and w its softmax weights

    - scores = (q~ . featsT + (q~ . tableT) . blendT) / sqrt(dh),
    - pooled = w . feats + (w . blend) . table,

    and the table meets the samples only through their S level weights.
    `sample_attention` takes both products, the softmax between them and
    their gradients as one tape node. At inference each state reads its
    own segment of distinct lattice points, each weighted by its number
    of copies, through the forward-only `segment_attention`.

    ``k`` has no bias: a key bias adds the same logit to every sample of
    a query and cancels in the softmax. Neither ``k`` nor ``v`` runs as a
    layer, so only their weights and ``v.bias`` are registered. This costs
    O(h d (dh + m)) per state instead of O(m d h dh), and equals the
    per-sample form up to rounding."""

    def __init__(self, registry: ParameterRegistry, prefix: str, d: int,
                 heads: int, head_dim: int, rng: np.random.Generator | None):
        width = heads * head_dim
        self.heads, self.head_dim = heads, head_dim
        self.wq = LinearParams(registry, f"{prefix}.q", d, width, rng)
        self.k_weight = registry.add(f"{prefix}.k.weight", xavier(rng, d, width))
        self.v_weight = registry.add(f"{prefix}.v.weight", xavier(rng, d, width))
        self.v_bias = registry.add(f"{prefix}.v.bias", np.zeros(width))
        self.out = LinearParams(registry, f"{prefix}.out", width, d, rng)
        self.ln = norm_params(registry, f"{prefix}.ln", d)

    def __call__(self, state: Tensor, query: Tensor, feats: Tensor, blend: Tensor,
                 table: Tensor, lattice: LatticePoints | None = None,
                 return_weights: bool = False):
        """table: the S x d scale table. With lattice None, feats: n x K x
        m x d samples and blend: their n x K x m x S level weights, and the
        weights returned are n x K x h x m. With a lattice, feats: M x d
        samples of its distinct points and blend: their M x S level
        weights, and the weights returned are M x h."""
        n, K, d = state.shape
        N, h, dh = n * K, self.heads, self.head_dim
        q = split_heads(self.wq(query), h)  # h,N,dh
        q_key = matmul(q * (1.0 / math.sqrt(dh)), split_keys(self.k_weight, h))  # h,N,d
        if lattice is None:
            m, S = feats.shape[2], table.shape[0]
            pooled, weights = sample_attention(q_key, reshape(feats, (N, m, d)),
                                               reshape(blend, (N, m, S)), table)  # h,N,d
            weights = reshape(weights, (n, K, h, m))
        else:
            pooled, weights = segment_attention(q_key, feats, blend, table,
                                                lattice.log_counts, lattice.starts)
        wv = split_heads(self.v_weight, h)  # h,d,dh
        ctx = reshape(transpose(matmul(pooled, wv), (1, 0, 2)), (n, K, h * dh))
        out = layer_norm(add(state, self.out(add(ctx, self.v_bias))), *self.ln)
        if return_weights:
            return out, weights
        return out


class RcaLayer:
    """Bidirectional attention between all subject and object states.

    One logit matrix feeds two reductions: softmax over keys updates the
    subject states from object values, softmax over queries updates the
    object states from subject values. Logits and values are read from the
    queries; both states get a post-norm residual and a feed-forward block.
    """

    def __init__(self, registry: ParameterRegistry, prefix: str, d: int,
                 heads: int, head_dim: int, rng: np.random.Generator | None):
        width = heads * head_dim
        self.heads, self.head_dim = heads, head_dim
        self.wq = LinearParams(registry, f"{prefix}.q", d, width, rng)
        self.wk = LinearParams(registry, f"{prefix}.k", d, width, rng)
        # Per-role blocks, indexed (subject, object).
        self.wv = [LinearParams(registry, f"{prefix}.v_{r}", d, width, rng) for r in ROLES]
        self.out = [LinearParams(registry, f"{prefix}.out_{r}", width, d, rng) for r in ROLES]
        self.ffn = [(LinearParams(registry, f"{prefix}.ffn_{r}.hidden", d, 4 * d, rng),
                     LinearParams(registry, f"{prefix}.ffn_{r}.out", 4 * d, d, rng))
                    for r in ROLES]
        self.ln_attn = [norm_params(registry, f"{prefix}.ln.attn_{r}", d) for r in ROLES]
        self.ln_ffn = [norm_params(registry, f"{prefix}.ln.ffn_{r}", d) for r in ROLES]

    def __call__(self, states: tuple, queries: tuple, return_weights: bool = False):
        n, K, d = states[0].shape
        N = n * K
        inputs = [reshape(q, (N, d)) for q in queries]
        q = split_heads(self.wq(inputs[0]), self.heads)
        k = split_keys(self.wk(inputs[1]), self.heads)
        logits = matmul(q, k) * (1.0 / math.sqrt(self.head_dim))  # h,N,N
        over_keys = softmax(logits, axis=-1)
        over_queries = softmax(logits, axis=1)
        # Subjects read object values over keys; objects read subject
        # values over queries.
        reads = (over_keys, transpose(over_queries, (0, 2, 1)))
        updated = []
        for r, x in enumerate(states):
            other = 1 - r
            values = split_heads(self.wv[other](inputs[other]), self.heads)
            ctx = transpose(matmul(reads[r], values), (1, 0, 2))  # N,h,dh
            ctx = reshape(ctx, (N, self.heads * self.head_dim))
            x = layer_norm(add(reshape(x, (N, d)), self.out[r](ctx)), *self.ln_attn[r])
            ffn_hidden, ffn_out = self.ffn[r]
            x = layer_norm(add(x, ffn_out(relu(ffn_hidden(x)))), *self.ln_ffn[r])
            updated.append(reshape(x, (n, K, d)))
        if return_weights:
            return tuple(updated), (over_keys, over_queries)
        return tuple(updated)


class DecoderStack:
    """Owns the class and scale embeddings, per-layer samplers and attention
    blocks, plus the box-embedding projection and corner/role embeddings."""

    def __init__(self, registry: ParameterRegistry, config: RunConfig,
                 rng: np.random.Generator | None):
        C, K, d = config.C, config.K, config.d
        self.sub_embeds = registry.add("embeds.subject", init_normal(rng, 0.02, (C, K, d)))
        self.obj_embeds = registry.add("embeds.object", init_normal(rng, 0.02, (C, K, d)))
        self.scale_embeds = registry.add("embeds.scale",
                                         init_normal(rng, 0.02, (SCALE_LEVELS, d)))
        self.d, self.layers = d, config.L_d
        self.range_mult, self.step_mult = config.infer_range_mult, config.infer_step_mult
        self.nearest_scale = config.scale_interpolation == "nearest"
        self.box_proj = LinearParams(registry, "decoder.box_proj", 2 * d, d, rng)
        self.corner_embeds = registry.add("decoder.corner_embeds", init_normal(rng, 0.02, (2, d)))
        self.role_embeds = registry.add("decoder.role_embeds", init_normal(rng, 0.02, (2, d)))
        # Per layer, one sampler and one GCA block per role, as
        # (subject, object) pairs, then one RCA block over both roles.
        self.samplers, self.gca, self.rca = [], [], []
        for layer in range(self.layers):
            prefix = f"decoder.layer{layer}"
            self.samplers.append(tuple(
                GroupOffsetPredictor(registry, f"{prefix}.sampler_{r}", d, K, rng,
                                     lr_mult=config.lr_multiplier_sampler) for r in ROLES))
            self.gca.append(tuple(
                GcaLayer(registry, f"{prefix}.gca_{r}", d, config.h_G, config.d_G, rng)
                for r in ROLES))
            self.rca.append(RcaLayer(registry, f"{prefix}.rca", d, config.h_R, config.d_R, rng))

    def init_state(self, detections: list, volume: np.ndarray) -> tuple:
        """Initial (subject, object) states from class embeddings + center
        features, and (subject, object) box embeddings, each n x 1 x d, from
        positional codes (sinusoid plus scale embedding) at the two box
        corners. Also returns the n x 3 initial points."""
        n, d = len(detections), self.d
        classes = np.array([det.class_label for det in detections], dtype=np.intp)
        p0 = initial_points(detections)
        center_feats = point_sample(volume, Tensor(p0.reshape(n, 1, 3)))  # n x 1 x d
        sub = add(self.sub_embeds[classes], center_feats)
        obj = add(self.obj_embeds[classes], center_feats)

        xy = np.array([det.box for det in detections], dtype=np.float64).reshape(n, 2, 2)
        corners = Tensor(np.concatenate(  # 2 x n x 3: top-left, bottom-right
            [xy.transpose(1, 0, 2), np.broadcast_to(p0[:, 2:], (2, n, 1))], axis=-1))
        grid = sinusoidal_grid(*volume.shape[1:])[None]  # 1 x H x W x d
        scale = matmul(level_weights(corners, SCALE_LEVELS), self.scale_embeds)
        codes = add(add(point_sample(grid, corners), scale),
                    reshape(self.corner_embeds, (2, 1, d)))
        box = reshape(self.box_proj(reshape(transpose(codes, (1, 0, 2)), (n, 2 * d))),
                      (n, 1, d))
        boxes = tuple(add(box, self.role_embeds[r]) for r in range(len(ROLES)))
        return (sub, obj), boxes, p0

    def decode(self, detections: list, volume: np.ndarray, draw: TrainDraw | None) -> DecodeResult:
        """Sample points drawn at random with a training draw, or on the
        inference lattice without one."""
        folded = build_positional_embeddings(volume)
        states, boxes, p0 = self.init_state(detections, volume)
        qs = queries(states, boxes)
        layer_means, layer_points = ([], []), ([], [])
        points = [Tensor(p0[:, None, None])] * 2
        means = [Tensor(p0[:, None])] * 2

        for layer in range(self.layers):
            updated = []
            for r, (x, q) in enumerate(zip(states, qs)):
                dist = self.samplers[layer][r](q)
                if draw is None:
                    offsets = inference_grid_offsets(dist, self.range_mult, self.step_mult)
                else:
                    offsets = draw_offsets(dist, draw.m, draw.rng)
                points[r] = accumulate_points(points[r], offsets)
                means[r] = add(means[r], dist.mu)
                layer_means[r].append(means[r])
                layer_points[r].append(points[r].data)
                coords = snap_scale(points[r]) if self.nearest_scale else points[r]
                lattice = None
                if draw is None:
                    # Each distinct lattice point once, weighted by its
                    # number of copies; the coordinates enter as constants.
                    lattice = distinct_lattice_points(coords.data)
                    coords = Tensor(lattice.points)
                # Features plus sinusoid in one sample of the folded volume;
                # GCA joins the scale table through the level weights.
                feats = point_sample(folded, coords)
                blend = level_weights(coords, SCALE_LEVELS)
                updated.append(self.gca[layer][r](x, q, feats, blend, self.scale_embeds,
                                                  lattice))
            states = self.rca[layer](updated, queries(updated, boxes))
            qs = queries(states, boxes)

        return DecodeResult(queries=qs, means=layer_means, points=layer_points)
