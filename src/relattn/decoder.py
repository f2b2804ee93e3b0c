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


@dataclass
class DecoderState:
    sub: Tensor      # n x K x d subject-role states
    obj: Tensor      # n x K x d object-role states
    sub_box: Tensor  # n x d subject box embeddings
    obj_box: Tensor  # n x d object box embeddings


@dataclass
class DecodeResult:
    state: DecoderState
    mu_sub: list = field(default_factory=list)      # per layer, n x K x 3
    mu_obj: list = field(default_factory=list)
    mean_sub: list = field(default_factory=list)    # accumulated unclamped offset means
    mean_obj: list = field(default_factory=list)
    points_sub: list = field(default_factory=list)  # per layer, n x K x m x 3 arrays
    points_obj: list = field(default_factory=list)


class GcaLayer:
    """Multi-head attention of one state over its own sampled point
    features, with a residual connection and layer norm."""

    def __init__(self, registry: ParameterRegistry, prefix: str, d: int,
                 heads: int, head_dim: int, rng: np.random.Generator):
        width = heads * head_dim
        self.heads, self.head_dim, self.d = heads, head_dim, d
        self.wq = LinearParams(registry, f"{prefix}.q", d, width, rng)
        self.wk = LinearParams(registry, f"{prefix}.k", d, width, rng, bias=False)
        self.wv = LinearParams(registry, f"{prefix}.v", d, width, rng)
        self.out = LinearParams(registry, f"{prefix}.out", width, d, rng)
        self.ln_gain = registry.add(f"{prefix}.ln.gain", np.ones(d))
        self.ln_shift = registry.add(f"{prefix}.ln.shift", np.zeros(d))

    def __call__(self, state: Tensor, box_embed: Tensor, feats: Tensor, pe: Tensor,
                 return_weights: bool = False):
        n, K, d = state.shape
        m = feats.shape[2]
        h, dh = self.heads, self.head_dim
        q_in = add(state, reshape(box_embed, (n, 1, d)))
        kv_in = add(feats, pe)
        q = reshape(self.wq(q_in), (n, K, h, 1, dh))
        k = transpose(reshape(self.wk(kv_in), (n, K, m, h, dh)), (0, 1, 3, 2, 4))
        v = transpose(reshape(self.wv(kv_in), (n, K, m, h, dh)), (0, 1, 3, 2, 4))
        scores = matmul(q, swap_last(k)) * (1.0 / math.sqrt(dh))  # n,K,h,1,m
        weights = softmax(scores, axis=-1)
        ctx = reshape(matmul(weights, v), (n, K, h * dh))
        out = layer_norm(add(state, self.out(ctx)), self.ln_gain, self.ln_shift)
        if return_weights:
            return out, reshape(weights, (n, K, h, m))
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
        self.wv_sub = LinearParams(registry, f"{prefix}.v_sub", d, width, rng)
        self.wv_obj = LinearParams(registry, f"{prefix}.v_obj", d, width, rng)
        self.out_sub = LinearParams(registry, f"{prefix}.out_sub", width, d, rng)
        self.out_obj = LinearParams(registry, f"{prefix}.out_obj", width, d, rng)
        self.ffn_sub = (LinearParams(registry, f"{prefix}.ffn_sub.hidden", d, 4 * d, rng),
                        LinearParams(registry, f"{prefix}.ffn_sub.out", 4 * d, d, rng))
        self.ffn_obj = (LinearParams(registry, f"{prefix}.ffn_obj.hidden", d, 4 * d, rng),
                        LinearParams(registry, f"{prefix}.ffn_obj.out", 4 * d, d, rng))
        self.ln = {}
        for tag in ("attn_sub", "attn_obj", "ffn_sub", "ffn_obj"):
            self.ln[tag] = (registry.add(f"{prefix}.ln.{tag}.gain", np.ones(d)),
                            registry.add(f"{prefix}.ln.{tag}.shift", np.zeros(d)))

    def _split_heads(self, x: Tensor, N: int) -> Tensor:
        return transpose(reshape(x, (N, self.heads, self.head_dim)), (1, 0, 2))

    def __call__(self, state: DecoderState, return_weights: bool = False):
        n, K, d = state.sub.shape
        N = n * K
        sub_flat = reshape(state.sub, (N, d))
        obj_flat = reshape(state.obj, (N, d))
        q_in = reshape(add(state.sub, reshape(state.sub_box, (n, 1, d))), (N, d))
        k_in = reshape(add(state.obj, reshape(state.obj_box, (n, 1, d))), (N, d))
        q = self._split_heads(self.wq(q_in), N)
        k = self._split_heads(self.wk(k_in), N)
        v_sub = self._split_heads(self.wv_sub(q_in), N)
        v_obj = self._split_heads(self.wv_obj(k_in), N)
        logits = matmul(q, swap_last(k)) * (1.0 / math.sqrt(self.head_dim))  # h,N,N
        over_keys = softmax(logits, axis=-1)
        over_queries = softmax(logits, axis=1)
        sub_ctx = matmul(over_keys, v_obj)                   # h,N,dh
        obj_ctx = matmul(swap_last(over_queries), v_sub)     # h,N,dh

        def merge(ctx: Tensor) -> Tensor:
            return reshape(transpose(ctx, (1, 0, 2)), (N, self.heads * self.head_dim))

        sub1 = layer_norm(add(sub_flat, self.out_sub(merge(sub_ctx))), *self.ln["attn_sub"])
        obj1 = layer_norm(add(obj_flat, self.out_obj(merge(obj_ctx))), *self.ln["attn_obj"])
        sub2 = layer_norm(add(sub1, self.ffn_sub[1](relu(self.ffn_sub[0](sub1)))),
                          *self.ln["ffn_sub"])
        obj2 = layer_norm(add(obj1, self.ffn_obj[1](relu(self.ffn_obj[0](obj1)))),
                          *self.ln["ffn_obj"])
        new_state = DecoderState(sub=reshape(sub2, (n, K, d)), obj=reshape(obj2, (n, K, d)),
                                 sub_box=state.sub_box, obj_box=state.obj_box)
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
        self.sampler_sub, self.sampler_obj = [], []
        self.gca_sub, self.gca_obj, self.rca = [], [], []
        for layer in range(layers):
            self.sampler_sub.append(GroupOffsetPredictor(
                registry, f"decoder.layer{layer}.sampler_sub", d, K, rng,
                lr_mult=sampler_lr_mult))
            self.sampler_obj.append(GroupOffsetPredictor(
                registry, f"decoder.layer{layer}.sampler_obj", d, K, rng,
                lr_mult=sampler_lr_mult))
            self.gca_sub.append(GcaLayer(
                registry, f"decoder.layer{layer}.gca_sub", d, h_G, d_G, rng))
            self.gca_obj.append(GcaLayer(
                registry, f"decoder.layer{layer}.gca_obj", d, h_G, d_G, rng))
            self.rca.append(RcaLayer(
                registry, f"decoder.layer{layer}.rca", d, h_R, d_R, rng))

    def init_state(self, detections: list, volume: Tensor, pe: PositionalEmbeddings,
                   sub_embeds: Tensor, obj_embeds: Tensor) -> tuple:
        """Initial states from class embeddings + center features, and box
        embeddings from positional codes at the two box corners."""
        n = len(detections)
        classes = np.array([det.class_label for det in detections], dtype=np.intp)
        p0 = initial_points(detections)
        center_feats = point_sample(volume, Tensor(p0.reshape(n, 1, 3)))  # n x 1 x d
        sub = add(sub_embeds[classes], center_feats)
        obj = add(obj_embeds[classes], center_feats)

        corners = np.empty((2, n, 3), dtype=np.float64)
        for i, det in enumerate(detections):
            x0, y0, x1, y1 = det.box
            s = det.scale_level / 4.0
            corners[0, i] = (x0, y0, s)
            corners[1, i] = (x1, y1, s)
        pe_tl, pe_br = (add(point_sample(pe.grid, c), level_lerp(pe.scale, c))
                        for c in (Tensor(corners[0]), Tensor(corners[1])))
        tl = add(pe_tl, self.corner_embeds[0])
        br = add(pe_br, self.corner_embeds[1])
        box = self.box_proj(concat([tl, br], axis=-1))
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
        points_sub = Tensor(p0.reshape(n, 1, 1, 3))
        points_obj = Tensor(p0.reshape(n, 1, 1, 3))
        mean_sub = Tensor(p0.reshape(n, 1, 3))
        mean_obj = Tensor(p0.reshape(n, 1, 3))

        for layer in range(self.layers):
            dist_sub = self.sampler_sub[layer](state.sub, state.sub_box)
            dist_obj = self.sampler_obj[layer](state.obj, state.obj_box)
            if mode == "train":
                off_sub = draw_offsets(dist_sub, m, rng)
                off_obj = draw_offsets(dist_obj, m, rng)
            else:
                off_sub = inference_grid_offsets(dist_sub, range_mult, step_mult)
                off_obj = inference_grid_offsets(dist_obj, range_mult, step_mult)
            points_sub = accumulate_points(points_sub, off_sub)
            points_obj = accumulate_points(points_obj, off_obj)
            mean_sub = add(mean_sub, dist_sub.mu)
            mean_obj = add(mean_obj, dist_obj.mu)
            result.mu_sub.append(dist_sub.mu)
            result.mu_obj.append(dist_obj.mu)
            result.mean_sub.append(mean_sub)
            result.mean_obj.append(mean_obj)
            if collect_points:
                result.points_sub.append(np.array(points_sub.data, copy=True))
                result.points_obj.append(np.array(points_obj.data, copy=True))

            coords_sub = snap_scale(points_sub) if scale_interpolation == "nearest" else points_sub
            coords_obj = snap_scale(points_obj) if scale_interpolation == "nearest" else points_obj
            # Features plus positional code in one sample of the folded
            # volume; the scale embedding is interpolated along s alone.
            feats_sub = point_sample(pe.folded, coords_sub)
            feats_obj = point_sample(pe.folded, coords_obj)
            pe_sub = level_lerp(pe.scale, coords_sub)
            pe_obj = level_lerp(pe.scale, coords_obj)
            new_sub = self.gca_sub[layer](state.sub, state.sub_box, feats_sub, pe_sub)
            new_obj = self.gca_obj[layer](state.obj, state.obj_box, feats_obj, pe_obj)
            state = DecoderState(sub=new_sub, obj=new_obj,
                                 sub_box=state.sub_box, obj_box=state.obj_box)
            state = self.rca[layer](state)

        result.state = state
        return result
