"""Entity decoder: queries and keys refined by two attention stages.

Each detected entity carries K subject-role states (queries) and K
object-role states (keys), seeded from class-specific embeddings plus the
feature volume at the box center. Every layer (1) predicts stochastic
representative points per state, (2) pools sampled point features into
each state with multi-head attention over its own samples, and (3) lets
all subject states attend over all object states (and transposed for the
object side) so both roles see scene-level context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import LinearParams, ParameterRegistry
from .sampler import GroupOffsetPredictor, draw_offsets, inference_grid_offsets, \
    accumulate_points
from .features import PositionalEmbeddings
from .tensor import Tensor, add, concat, layer_norm, level_lerp, matmul, point_sample, \
    relu, reshape, softmax, swap_last, transpose


ROLES = ("sub", "obj")


def initial_points(detections: list) -> np.ndarray:
    """n x 3 initial reference points: box center (x, y) and the scale
    level mapped into [0, 1] as level / 4."""
    pts = np.empty((len(detections), 3), dtype=np.float64)
    for i, det in enumerate(detections):
        cx, cy = det.center
        pts[i] = (cx, cy, det.scale_level / 4.0)
    return pts


def snap_scale(points: Tensor) -> Tensor:
    """Replace the scale coordinate with its nearest pyramid level
    (constant: no gradient flows through the snapped axis)."""
    snapped = np.round(points.data[..., 2] * 4.0) / 4.0
    xy = points[..., :2]
    return concat([xy, Tensor(snapped[..., None])], axis=-1)


def norm_params(registry: ParameterRegistry, prefix: str, d: int) -> tuple:
    """Layer-norm gain and shift, registered as ``prefix.gain``/``.shift``."""
    return (registry.add(f"{prefix}.gain", np.ones(d)),
            registry.add(f"{prefix}.shift", np.zeros(d)))


@dataclass
class DecoderState:
    sub: Tensor      # n x K x d subject-role states
    obj: Tensor      # n x K x d object-role states
    sub_box: Tensor  # n x d subject box embeddings
    obj_box: Tensor  # n x d object box embeddings


@dataclass
class DecodeResult:
    state: DecoderState
    mean_sub: list = field(default_factory=list)    # per layer, n x K x 3: accumulated
    mean_obj: list = field(default_factory=list)    # unclamped offset means
    points_sub: list = field(default_factory=list)  # per layer, n x K x m x 3 arrays
    points_obj: list = field(default_factory=list)


class GcaLayer:
    """Multi-head attention of one state over its own sampled point
    features, with a residual connection and layer norm.

    No per-sample key or value is formed. With x = feats + pe, head j's
    key weights W_k^j and value weights W_v^j:

    - q_j . (x W_k^j) = (q_j W_k^jT) . x, so each query is mapped back to
      width d once and scores the raw samples;
    - sum_m w_m (x_m W_v^j + b_j) = (sum_m w_m x_m) W_v^j + b_j, since the
      softmax weights sum to one, so the raw samples are pooled first and
      projected once per head, and ``v.bias`` passes through unchanged.

    ``k`` has no bias: a key bias adds the same logit to every sample of
    a query and cancels in the softmax. This costs O(h d (dh + m)) per
    state instead of O(m d h dh), and equals the per-sample form up to
    rounding."""

    def __init__(self, registry: ParameterRegistry, prefix: str, d: int,
                 heads: int, head_dim: int, rng: np.random.Generator):
        width = heads * head_dim
        self.heads, self.head_dim, self.d = heads, head_dim, d
        self.wq = LinearParams(registry, f"{prefix}.q", d, width, rng)
        self.wk = LinearParams(registry, f"{prefix}.k", d, width, rng, bias=False)
        self.wv = LinearParams(registry, f"{prefix}.v", d, width, rng)
        self.out = LinearParams(registry, f"{prefix}.out", width, d, rng)
        self.ln = norm_params(registry, f"{prefix}.ln", d)

    def __call__(self, state: Tensor, box_embed: Tensor, feats: Tensor, pe: Tensor,
                 return_weights: bool = False):
        n, K, d = state.shape
        N, h, dh = n * K, self.heads, self.head_dim
        q_in = add(state, reshape(box_embed, (n, 1, d)))
        x = reshape(add(feats, pe), (N, feats.shape[2], d))  # N,m,d
        q = transpose(reshape(self.wq(q_in), (N, h, dh)), (1, 0, 2))  # h,N,dh
        wk = transpose(reshape(self.wk.weight, (d, h, dh)), (1, 2, 0))  # h,dh,d
        q_key = transpose(matmul(q, wk), (1, 0, 2))  # N,h,d
        scores = matmul(q_key, swap_last(x)) * (1.0 / math.sqrt(dh))  # N,h,m
        weights = softmax(scores, axis=-1)
        pooled = transpose(matmul(weights, x), (1, 0, 2))  # h,N,d
        wv = transpose(reshape(self.wv.weight, (d, h, dh)), (1, 0, 2))  # h,d,dh
        ctx = reshape(transpose(matmul(pooled, wv), (1, 0, 2)), (n, K, h * dh))
        out = layer_norm(add(state, self.out(add(ctx, self.wv.bias))), *self.ln)
        if return_weights:
            return out, reshape(weights, (n, K, h, -1))
        return out


class RcaLayer:
    """Bidirectional attention between all subject and object states.

    One logit matrix feeds two reductions: softmax over keys updates the
    subject states from object values, softmax over queries updates the
    object states from subject values. Both sides get a post-norm residual
    and a feed-forward block.
    """

    def __init__(self, registry: ParameterRegistry, prefix: str, d: int,
                 heads: int, head_dim: int, rng: np.random.Generator):
        width = heads * head_dim
        self.heads, self.head_dim, self.d = heads, head_dim, d
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

    def _split_heads(self, x: Tensor, N: int) -> Tensor:
        return transpose(reshape(x, (N, self.heads, self.head_dim)), (1, 0, 2))

    def __call__(self, state: DecoderState, return_weights: bool = False):
        n, K, d = state.sub.shape
        N = n * K
        states = (state.sub, state.obj)
        inputs = [reshape(add(x, reshape(box, (n, 1, d))), (N, d))
                  for x, box in zip(states, (state.sub_box, state.obj_box))]
        q = self._split_heads(self.wq(inputs[0]), N)
        k = self._split_heads(self.wk(inputs[1]), N)
        logits = matmul(q, swap_last(k)) * (1.0 / math.sqrt(self.head_dim))  # h,N,N
        over_keys = softmax(logits, axis=-1)
        over_queries = softmax(logits, axis=1)
        # Subjects read object values over keys; objects read subject
        # values over queries.
        reads = (over_keys, swap_last(over_queries))
        updated = []
        for r, x in enumerate(states):
            other = 1 - r
            values = self._split_heads(self.wv[other](inputs[other]), N)
            ctx = transpose(matmul(reads[r], values), (1, 0, 2))  # N,h,dh
            ctx = reshape(ctx, (N, self.heads * self.head_dim))
            x = layer_norm(add(reshape(x, (N, d)), self.out[r](ctx)), *self.ln_attn[r])
            ffn_hidden, ffn_out = self.ffn[r]
            x = layer_norm(add(x, ffn_out(relu(ffn_hidden(x)))), *self.ln_ffn[r])
            updated.append(reshape(x, (n, K, d)))
        new_state = DecoderState(*updated, sub_box=state.sub_box, obj_box=state.obj_box)
        if return_weights:
            return new_state, (over_keys, over_queries)
        return new_state


class DecoderStack:
    """Owns per-layer samplers and attention blocks, plus the box-embedding
    projection and corner/role embeddings."""

    def __init__(self, registry: ParameterRegistry, d: int, K: int, layers: int,
                 h_G: int, d_G: int, h_R: int, d_R: int, sampler_lr_mult: float,
                 rng: np.random.Generator):
        self.d, self.K, self.layers = d, K, layers
        self.box_proj = LinearParams(registry, "decoder.box_proj", 2 * d, d, rng)
        self.corner_embeds = registry.add("decoder.corner_embeds",
                                          rng.normal(0.0, 0.02, size=(2, d)))
        self.role_embeds = registry.add("decoder.role_embeds",
                                        rng.normal(0.0, 0.02, size=(2, d)))
        # Per layer, one sampler and one GCA block per role, as
        # (subject, object) pairs, then one RCA block over both roles.
        self.samplers, self.gca, self.rca = [], [], []
        for layer in range(layers):
            prefix = f"decoder.layer{layer}"
            self.samplers.append(tuple(
                GroupOffsetPredictor(registry, f"{prefix}.sampler_{r}", d, K, rng,
                                     lr_mult=sampler_lr_mult) for r in ROLES))
            self.gca.append(tuple(
                GcaLayer(registry, f"{prefix}.gca_{r}", d, h_G, d_G, rng) for r in ROLES))
            self.rca.append(RcaLayer(registry, f"{prefix}.rca", d, h_R, d_R, rng))

    def init_state(self, detections: list, volume: Tensor, pe: PositionalEmbeddings,
                   sub_embeds: Tensor, obj_embeds: Tensor) -> tuple:
        """Initial states from class embeddings + center features, and box
        embeddings from positional codes at the two box corners."""
        n, d = len(detections), self.d
        classes = np.array([det.class_label for det in detections], dtype=np.intp)
        p0 = initial_points(detections)
        center_feats = point_sample(volume, Tensor(p0.reshape(n, 1, 3)))  # n x 1 x d
        sub = add(sub_embeds[classes], center_feats)
        obj = add(obj_embeds[classes], center_feats)

        xy = np.array([det.box for det in detections], dtype=np.float64).reshape(n, 2, 2)
        corners = Tensor(np.concatenate(  # 2 x n x 3: top-left, bottom-right
            [xy.transpose(1, 0, 2), np.broadcast_to(p0[:, 2:], (2, n, 1))], axis=-1))
        codes = add(add(point_sample(pe.grid, corners), level_lerp(pe.scale, corners)),
                    reshape(self.corner_embeds, (2, 1, d)))
        box = self.box_proj(reshape(transpose(codes, (1, 0, 2)), (n, 2 * d)))
        state = DecoderState(sub=sub, obj=obj,
                             sub_box=add(box, self.role_embeds[0]),
                             obj_box=add(box, self.role_embeds[1]))
        return state, p0

    def decode(self, detections: list, volume: Tensor, pe: PositionalEmbeddings,
               sub_embeds: Tensor, obj_embeds: Tensor, mode: str,
               rng: np.random.Generator = None, m: int = None,
               range_mult: int = 3, step_mult: int = 1,
               scale_interpolation: str = "trilinear",
               collect_points: bool = False) -> DecodeResult:
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown decode mode {mode!r}")
        if mode == "train" and (m is None or rng is None):
            raise ValueError("train-mode decoding needs a sample count m and an rng")
        state, p0 = self.init_state(detections, volume, pe, sub_embeds, obj_embeds)
        n = len(detections)
        result = DecodeResult(state=state)
        points = [Tensor(p0.reshape(n, 1, 1, 3))] * 2
        means = [Tensor(p0.reshape(n, 1, 3))] * 2
        mean_lists = (result.mean_sub, result.mean_obj)
        point_lists = (result.points_sub, result.points_obj)

        for layer in range(self.layers):
            boxes = (state.sub_box, state.obj_box)
            updated = []
            for r, x in enumerate((state.sub, state.obj)):
                dist = self.samplers[layer][r](x, boxes[r])
                if mode == "train":
                    offsets = draw_offsets(dist, m, rng)
                else:
                    offsets = inference_grid_offsets(dist, range_mult, step_mult)
                points[r] = accumulate_points(points[r], offsets)
                means[r] = add(means[r], dist.mu)
                mean_lists[r].append(means[r])
                if collect_points:
                    point_lists[r].append(np.array(points[r].data, copy=True))
                coords = snap_scale(points[r]) if scale_interpolation == "nearest" else points[r]
                # Features plus positional code in one sample of the folded
                # volume; the scale embedding is interpolated along s alone.
                feats = point_sample(pe.folded, coords)
                updated.append(self.gca[layer][r](x, boxes[r], feats,
                                                  level_lerp(pe.scale, coords)))
            state = self.rca[layer](DecoderState(*updated, *boxes))

        result.state = state
        return result
